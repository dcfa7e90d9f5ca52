"""Repo AST lint pack: the tree is clean, seeded violations are caught."""

from __future__ import annotations

from textwrap import dedent

from repro.analysis.selflint import lint_package, lint_source


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


def test_repository_is_clean():
    assert lint_package() == []


# -- wall-clock -------------------------------------------------------------


def test_wall_clock_flagged_in_simulation():
    source = dedent(
        """
        import time

        def now():
            return time.time()
        """
    )
    diagnostics = lint_source(source, "repro/simulation/fake.py")
    assert _rules(diagnostics) == ["wall-clock"]
    assert "SimulatedClock" in diagnostics[0].message


def test_datetime_now_flagged_in_simulation():
    source = dedent(
        """
        import datetime

        def now():
            return datetime.datetime.now()
        """
    )
    assert _rules(lint_source(source, "repro/simulation/fake.py")) == ["wall-clock"]


def test_wall_clock_allowed_outside_simulation():
    source = "import time\n\ndef now():\n    return time.time()\n"
    assert lint_source(source, "repro/obs/fake.py") == []


# -- bare-except ------------------------------------------------------------


def test_bare_except_flagged_in_engine():
    source = dedent(
        """
        def run():
            try:
                work()
            except:
                pass
        """
    )
    diagnostics = lint_source(source, "repro/engine/fake.py")
    assert _rules(diagnostics) == ["bare-except"]


def test_bare_except_flagged_in_replication():
    source = "try:\n    work()\nexcept:\n    pass\n"
    assert _rules(lint_source(source, "repro/replication/fake.py")) == ["bare-except"]


def test_narrow_except_is_clean():
    source = "try:\n    work()\nexcept ValueError:\n    pass\n"
    assert lint_source(source, "repro/engine/fake.py") == []


def test_bare_except_allowed_elsewhere():
    source = "try:\n    work()\nexcept:\n    pass\n"
    assert lint_source(source, "repro/tpcw/fake.py") == []


# -- metric-name-literal -----------------------------------------------------


def test_dynamic_metric_name_flagged():
    source = dedent(
        """
        def record(metrics, name):
            metrics.counter(name).inc()
        """
    )
    diagnostics = lint_source(source, "repro/engine/fake.py")
    assert _rules(diagnostics) == ["metric-name-literal"]


def test_literal_metric_name_is_clean():
    source = "def record(metrics):\n    metrics.counter('engine.requests').inc()\n"
    assert lint_source(source, "repro/engine/fake.py") == []


def test_dynamic_metric_name_allowed_in_obs():
    source = "def record(metrics, name):\n    metrics.counter(name).inc()\n"
    assert lint_source(source, "repro/obs/fake.py") == []


def test_metric_name_keyword_argument_checked():
    source = "def record(metrics, name):\n    metrics.gauge(name=name).add(1)\n"
    assert _rules(lint_source(source, "repro/engine/fake.py")) == ["metric-name-literal"]


# -- operator-children -------------------------------------------------------


def test_unregistered_child_flagged():
    source = dedent(
        """
        class BadOp(PhysicalOperator):
            def __init__(self, child):
                super().__init__(child.schema)
                self.child = child
        """
    )
    diagnostics = lint_source(source, "repro/exec/fake.py")
    assert _rules(diagnostics) == ["operator-children"]
    assert "child" in diagnostics[0].message


def test_missing_super_init_flagged():
    source = dedent(
        """
        class WorseOp(PhysicalOperator):
            def __init__(self, left, right):
                self.left = left
                self.right = right
        """
    )
    diagnostics = lint_source(source, "repro/exec/fake.py")
    assert _rules(diagnostics) == ["operator-children"]


def test_registered_children_are_clean():
    source = dedent(
        """
        class GoodOp(PhysicalOperator):
            def __init__(self, left, right):
                super().__init__(left.schema.concat(right.schema), [left, right])
        """
    )
    assert lint_source(source, "repro/exec/fake.py") == []


def test_non_operator_classes_ignored():
    source = dedent(
        """
        class Holder:
            def __init__(self, child):
                self.child = child
        """
    )
    assert lint_source(source, "repro/exec/fake.py") == []


# -- compile-at-build-time ---------------------------------------------------


def test_compile_in_rows_loop_flagged():
    source = dedent(
        """
        class LazyOp(PhysicalOperator):
            def execute_batches(self, ctx):
                return _chunked(self._rows(ctx), ctx.batch_rows)

            def _rows(self, ctx):
                predicate = compile_scalar(self.expr, self.schema)
                for chunk in self.children[0].execute_batches(ctx):
                    yield from (
                        row for row, keep in zip(chunk, predicate(chunk, ctx)) if keep is True
                    )
        """
    )
    diagnostics = lint_source(source, "repro/exec/fake.py")
    assert _rules(diagnostics) == ["compile-at-build-time"]
    assert "compile_scalar" in diagnostics[0].message


def test_compile_in_execute_batches_flagged():
    source = dedent(
        """
        class LazyOp(PhysicalOperator):
            def execute_batches(self, ctx):
                kernel = ExpressionCompiler(self.schema).compile(self.expr)
                yield kernel(self.rows, ctx)
        """
    )
    assert _rules(lint_source(source, "repro/exec/fake.py")) == [
        "compile-at-build-time"
    ]


def test_compile_in_next_methods_flagged():
    source = dedent(
        """
        class CursorOperator(PhysicalOperator):
            def __next__(self):
                return compile_scalar(self.expr, self.schema)

            def next_batch(self):
                return compile_scalar(self.expr, self.schema)
        """
    )
    diagnostics = lint_source(source, "repro/exec/fake.py")
    assert _rules(diagnostics) == ["compile-at-build-time"] * 2


def test_compile_in_init_is_clean():
    source = dedent(
        """
        class EagerOp(PhysicalOperator):
            def __init__(self, schema, expr):
                super().__init__(schema)
                self.predicate = compile_scalar(expr, schema)

            def execute_batches(self, ctx):
                for chunk in self.children[0].execute_batches(ctx):
                    selection = self.predicate(chunk, ctx)
                    yield [row for row, keep in zip(chunk, selection) if keep is True]
        """
    )
    assert lint_source(source, "repro/exec/fake.py") == []


def test_compile_outside_operator_classes_ignored():
    source = dedent(
        """
        class PlanBuilder:
            def execute_batches(self, ctx):
                return compile_scalar(self.expr, self.schema)
        """
    )
    assert lint_source(source, "repro/exec/fake.py") == []


# -- parse errors ------------------------------------------------------------


def test_syntax_error_reported_as_parse():
    assert _rules(lint_source("def broken(:\n", "repro/engine/fake.py")) == ["parse"]


# -- session-construction ----------------------------------------------------


def test_session_construction_flagged_outside_client():
    source = dedent(
        """
        from repro.engine.session import Session

        def make():
            return Session(principal="dbo")
        """
    )
    diagnostics = lint_source(source, "repro/tpcw/fake.py")
    assert _rules(diagnostics) == ["session-construction"]
    assert "repro.client.connect" in diagnostics[0].message


def test_dotted_session_construction_flagged():
    source = dedent(
        """
        import repro.engine.session

        def make():
            return repro.engine.session.Session()
        """
    )
    assert _rules(lint_source(source, "repro/mtcache/fake.py")) == [
        "session-construction"
    ]


def test_session_construction_allowed_in_client_and_engine():
    source = "from repro.engine.session import Session\n\ns = Session()\n"
    assert lint_source(source, "repro/client/fake.py") == []
    assert lint_source(source, "repro/engine/fake.py") == []


def test_other_session_like_names_ignored():
    source = "s = UserSession(customer_id=1)\n"
    assert lint_source(source, "repro/tpcw/fake.py") == []


# -- raw-threading-lock ------------------------------------------------------


def test_threading_lock_flagged():
    source = dedent(
        """
        import threading

        lock = threading.Lock()
        """
    )
    diagnostics = lint_source(source, "repro/storage/fake.py")
    assert _rules(diagnostics) == ["raw-threading-lock"]
    assert "repro.common.locks" in diagnostics[0].message


def test_imported_rlock_flagged():
    source = dedent(
        """
        from threading import RLock

        lock = RLock()
        """
    )
    assert _rules(lint_source(source, "repro/engine/fake.py")) == [
        "raw-threading-lock"
    ]


def test_lock_chokepoints_are_exempt():
    source = "import threading\n\nlock = threading.Lock()\n"
    assert lint_source(source, "repro/common/locks.py") == []
    assert lint_source(source, "repro/engine/locks.py") == []


def test_lock_helpers_are_clean():
    source = dedent(
        """
        from repro.common.locks import condition, mutex

        a = mutex()
        b = condition()
        """
    )
    assert lint_source(source, "repro/client/fake.py") == []


# -- shard-ownership ---------------------------------------------------------


def test_builtin_hash_modulo_flagged_outside_sharding():
    source = dedent(
        """
        def pick(key, shards):
            return shards[hash(key) % len(shards)]
        """
    )
    assert _rules(lint_source(source, "repro/client/fake.py")) == [
        "shard-ownership"
    ]


def test_sharding_package_may_own_placement_arithmetic():
    source = "def pick(key, n):\n    return hash(key) % n\n"
    assert lint_source(source, "repro/sharding/fake.py") == []


def test_non_placement_modulo_is_clean():
    source = dedent(
        """
        from repro.sharding import stable_hash

        def pick(key, n):
            return stable_hash(key) % n

        def bucket(value, n):
            return value % n
        """
    )
    assert lint_source(source, "repro/client/fake.py") == []


# -- overload-bounded -------------------------------------------------------


def test_append_flagged_in_overload_core():
    source = dedent(
        """
        class Gate:
            def __init__(self):
                self.pending = []

            def enqueue(self, item):
                self.pending.append(item)
        """
    )
    diagnostics = lint_source(source, "repro/resilience/overload.py")
    assert _rules(diagnostics) == ["overload-bounded"]
    assert "scalar" in diagnostics[0].message


def test_unbounded_deque_flagged_in_deadline_core():
    source = dedent(
        """
        from collections import deque

        waiters = deque()
        """
    )
    diagnostics = lint_source(source, "repro/resilience/deadline.py")
    assert _rules(diagnostics) == ["overload-bounded"]
    assert "maxsize/maxlen" in diagnostics[0].message


def test_bounded_deque_is_clean_in_overload_core():
    source = dedent(
        """
        from collections import deque

        recent = deque(maxlen=32)
        seeded = deque([1, 2, 3], 8)
        """
    )
    assert lint_source(source, "repro/resilience/overload.py") == []


def test_sleep_flagged_in_overload_core():
    source = dedent(
        """
        import time

        def backpressure():
            time.sleep(0.1)
        """
    )
    diagnostics = lint_source(source, "repro/resilience/overload.py")
    assert _rules(diagnostics) == ["overload-bounded"]
    assert "fast rejection" in diagnostics[0].message


def test_queues_and_sleep_allowed_outside_the_overload_core():
    source = dedent(
        """
        import time
        from queue import Queue

        def worker(jobs):
            backlog = Queue()
            jobs.append(backlog)
            time.sleep(0.01)
        """
    )
    assert lint_source(source, "repro/tpcw/fake.py") == []


# -- net-raw-socket ----------------------------------------------------------


def test_raw_socket_flagged_outside_net():
    source = dedent(
        """
        import socket

        def dial(host, port):
            return socket.create_connection((host, port))
        """
    )
    diagnostics = lint_source(source, "repro/client/fake.py")
    assert _rules(diagnostics) == ["net-raw-socket"]
    assert "repro.client.connect" in diagnostics[0].message


def test_asyncio_stream_construction_flagged_outside_net():
    source = dedent(
        """
        import asyncio

        async def listen():
            return await asyncio.start_server(lambda r, w: None, "0.0.0.0", 1)
        """
    )
    assert _rules(lint_source(source, "repro/resilience/fake.py")) == [
        "net-raw-socket"
    ]


def test_from_imported_socket_names_flagged():
    source = dedent(
        """
        from socket import create_connection
        from asyncio import open_connection as dial

        def go():
            create_connection(("h", 1))
        """
    )
    assert _rules(lint_source(source, "repro/tpcw/fake.py")) == ["net-raw-socket"]


def test_raw_sockets_allowed_inside_net():
    source = dedent(
        """
        import asyncio
        import socket

        def dial(host, port):
            return socket.create_connection((host, port))

        async def listen(handler):
            return await asyncio.start_server(handler, "127.0.0.1", 0)
        """
    )
    assert lint_source(source, "repro/net/fake.py") == []


def test_session_construction_allowed_in_net():
    source = "from repro.engine.session import Session\n\ns = Session()\n"
    assert lint_source(source, "repro/net/fake.py") == []
