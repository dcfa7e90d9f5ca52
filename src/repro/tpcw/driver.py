"""The TPC-W load drivers: emulated browsers in virtual and real time.

:class:`LoadDriver` plays the role of the benchmark's remote browser
emulators (§6.1) in *virtual* time: a set of user sessions, each cycling
through think time (fixed at one second in the paper) and a next
interaction drawn from the workload mix, with the driver advancing the
deployment clock and ticking replication — deterministic and fast.

:class:`ThreadedLoadDriver` runs the same interactions from real worker
threads over a bounded :class:`~repro.client.ConnectionPool`, measuring
*wall-clock* throughput. Each worker checks a connection out per
interaction and sleeps real think time between interactions, so this is
the mode that actually exercises the engine's latches, table locks and
thread-safe caches. A ticker thread keeps the deployment's virtual clock
tracking wall time (``clock.advance_to(start + elapsed)``) and drives
replication, so cached deployments stay fresh while the workers run.

The *performance* experiments use :mod:`repro.simulation`, which adds CPU
queueing on simulated machines.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.locks import mutex
from repro.errors import DeadlineExceededError, OverloadError
from repro.tpcw.application import TPCWApplication
from repro.tpcw.workload import WorkloadMix


@dataclass
class DriverStats:
    """What a driver run observed."""

    interactions: int = 0
    db_calls: int = 0
    errors: int = 0
    virtual_seconds: float = 0.0
    # Wall-clock run length; zero for the virtual-time LoadDriver.
    wall_seconds: float = 0.0
    by_interaction: Dict[str, int] = field(default_factory=dict)
    # Failover activity of the connection's target (zero for plain
    # targets; populated when driving through a router).
    failovers: int = 0
    failbacks: int = 0
    # Overload activity (PR 9): interactions rejected fast by admission
    # control (OverloadError) and statements whose end-to-end deadline
    # expired (DeadlineExceededError). Both are *visible* failures — they
    # are counted separately from ``errors`` so goodput math is direct.
    shed: int = 0
    deadline_misses: int = 0
    # First few error tracebacks (threaded driver), for diagnosis.
    error_samples: List[str] = field(default_factory=list)

    @property
    def wips(self) -> float:
        """Interactions per virtual second (think-time bound, since the
        functional engine executes in zero virtual time)."""
        if self.virtual_seconds <= 0:
            return 0.0
        return self.interactions / self.virtual_seconds

    @property
    def throughput(self) -> float:
        """Interactions per wall-clock second (threaded driver only)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.interactions / self.wall_seconds

    def merge(self, other: "DriverStats") -> None:
        """Fold another worker's counters into this one."""
        self.interactions += other.interactions
        self.db_calls += other.db_calls
        self.errors += other.errors
        self.shed += other.shed
        self.deadline_misses += other.deadline_misses
        self.error_samples = (self.error_samples + other.error_samples)[:5]
        for name, count in other.by_interaction.items():
            self.by_interaction[name] = self.by_interaction.get(name, 0) + count


class LoadDriver:
    """Drives TPC-W traffic against a connection in virtual time."""

    def __init__(
        self,
        application: TPCWApplication,
        mix: WorkloadMix,
        users: int = 10,
        think_time: float = 1.0,
        deployment=None,
        seed: int = 17,
    ):
        self.application = application
        self.mix = mix
        self.users = users
        self.think_time = think_time
        self.deployment = deployment
        self.rng = random.Random(seed)

    def _target_server(self):
        """The engine Server the application's connection reaches.

        Connections may point at a plain :class:`~repro.engine.Server` or
        at a :class:`~repro.mtcache.cache_server.CacheServer` facade.
        """
        server = getattr(self.application.connection, "server", None)
        inner = getattr(server, "server", None)
        return inner if inner is not None else server

    def run(self, duration: float) -> DriverStats:
        """Run for ``duration`` virtual seconds; returns statistics."""
        stats = DriverStats()
        sessions = [self.application.new_session() for _ in range(self.users)]
        # (next_fire_time, user_index) — staggered starts over one think time.
        events = [
            (self.rng.uniform(0, self.think_time), user)
            for user in range(self.users)
        ]
        heapq.heapify(events)
        clock = self.deployment.clock if self.deployment is not None else None
        start = clock.now() if clock is not None else 0.0
        now = 0.0
        calls_before = self.application.db_calls

        target = self._target_server()
        registry = getattr(target, "metrics", None)
        tracer = getattr(target, "tracer", None)

        while events:
            now, user = heapq.heappop(events)
            if now > duration:
                break
            if clock is not None:
                clock.advance_to(start + now)
                self.deployment.tick()
            interaction = self.mix.sample(self.rng)
            span = (
                tracer.span(f"tpcw.{interaction}", user=user)
                if tracer is not None
                else None
            )
            try:
                if span is not None:
                    with span:
                        self.application.run(interaction, sessions[user])
                else:
                    self.application.run(interaction, sessions[user])
                stats.interactions += 1
                stats.by_interaction[interaction] = (
                    stats.by_interaction.get(interaction, 0) + 1
                )
                if registry is not None:
                    registry.counter(
                        "tpcw.interactions", labels={"interaction": interaction}
                    ).inc()
            except OverloadError:
                stats.shed += 1
            except DeadlineExceededError:
                stats.deadline_misses += 1
            except Exception:
                stats.errors += 1
                if registry is not None:
                    registry.counter("tpcw.errors").inc()
            heapq.heappush(events, (now + self.think_time, user))

        stats.virtual_seconds = min(now, duration)
        stats.db_calls = self.application.db_calls - calls_before
        router = self.application.connection.target
        stats.failovers = getattr(router, "failovers", 0)
        stats.failbacks = getattr(router, "failbacks", 0)
        if self.deployment is not None:
            self.deployment.sync()
        return stats


class ThreadedLoadDriver:
    """Drives TPC-W traffic from real threads over a connection pool.

    Each of ``workers`` threads is one emulated browser: it owns a
    deterministic RNG, a :class:`~repro.tpcw.application.TPCWApplication`
    and a user session, checks a pooled connection out for each
    interaction (health-checked by the pool), and sleeps ``think_time``
    *wall-clock* seconds between interactions. Because the engine work is
    short and the think time real, workers overlap their sleeps — which
    is exactly where threaded throughput comes from.

    When a ``deployment`` is given, a ticker thread advances its virtual
    clock to track elapsed wall time and calls ``deployment.tick()`` so
    replication keeps flowing to the caches during the run. Clock
    advancement and ticking happen under one mutex so the deployment sees
    a consistent timeline.
    """

    def __init__(
        self,
        pool,
        config,
        mix: WorkloadMix,
        workers: int = 4,
        think_time: float = 0.05,
        deployment=None,
        seed: int = 17,
        tick_interval: float = 0.01,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, not {workers}")
        self.pool = pool
        self.config = config
        self.mix = mix
        self.workers = workers
        self.think_time = think_time
        self.deployment = deployment
        self.seed = seed
        self.tick_interval = tick_interval
        self._tick_mutex = mutex()

    # -- worker / ticker bodies -------------------------------------------

    def _worker(self, index: int, stop_at: float, out: List[Optional[DriverStats]]) -> None:
        rng = random.Random(self.seed * 7919 + index)
        application = TPCWApplication(None, self.config, rng)
        session = application.new_session()
        local = DriverStats()
        while time.perf_counter() < stop_at:
            interaction = self.mix.sample(rng)
            try:
                with self.pool.connection() as connection:
                    application.connection = connection
                    try:
                        application.run(interaction, session)
                    finally:
                        application.connection = None
                local.interactions += 1
                local.by_interaction[interaction] = (
                    local.by_interaction.get(interaction, 0) + 1
                )
            except OverloadError:
                # Admission control shed the interaction before any work
                # — a fast, deliberate rejection, not a failure of the
                # system. Back off a think time and try again.
                local.shed += 1
            except DeadlineExceededError:
                local.deadline_misses += 1
            except Exception:
                local.errors += 1
                if len(local.error_samples) < 5:
                    local.error_samples.append(traceback.format_exc())
            time.sleep(self.think_time)
        local.db_calls = application.db_calls
        out[index] = local

    def _tick(self, virtual_start: float, wall_start: float) -> None:
        with self._tick_mutex:
            self.deployment.clock.advance_to(
                virtual_start + (time.perf_counter() - wall_start)
            )
            self.deployment.tick()

    def _ticker(self, stop: threading.Event, virtual_start: float, wall_start: float) -> None:
        while not stop.wait(self.tick_interval):
            self._tick(virtual_start, wall_start)

    # -- entry point -------------------------------------------------------

    def run(self, duration: float) -> DriverStats:
        """Run for ``duration`` wall-clock seconds; returns merged stats."""
        wall_start = time.perf_counter()
        stop_at = wall_start + duration
        out: List[Optional[DriverStats]] = [None] * self.workers
        threads = [
            threading.Thread(
                target=self._worker, args=(index, stop_at, out), daemon=True
            )
            for index in range(self.workers)
        ]
        stop_ticker = threading.Event()
        ticker = None
        if self.deployment is not None:
            virtual_start = self.deployment.clock.now()
            ticker = threading.Thread(
                target=self._ticker,
                args=(stop_ticker, virtual_start, wall_start),
                daemon=True,
            )
            ticker.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if ticker is not None:
            stop_ticker.set()
            ticker.join()
        stats = DriverStats()
        for local in out:
            if local is not None:
                stats.merge(local)
        stats.wall_seconds = time.perf_counter() - wall_start
        if self.deployment is not None:
            self._tick(virtual_start, wall_start)
            self.deployment.sync()
        return stats


def main(argv=None) -> int:
    """``python -m repro.tpcw.driver``: threaded TPC-W against a cache."""
    import argparse

    from repro.client import ConnectionPool, connect
    from repro.tpcw.config import TPCWConfig
    from repro.tpcw.setup import build_backend, enable_caching
    from repro.tpcw.workload import MIXES

    parser = argparse.ArgumentParser(
        prog="python -m repro.tpcw.driver",
        description="Multi-threaded TPC-W load against a cache-enabled deployment",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--duration", type=float, default=2.0, help="wall-clock seconds")
    parser.add_argument("--think-time", type=float, default=0.05)
    parser.add_argument("--mix", choices=sorted(MIXES), default="Shopping")
    parser.add_argument("--items", type=int, default=100)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--dsn",
        default=None,
        help="drive an already-running server by DSN (e.g. the tcp:// line "
        "printed by 'python -m repro serve') instead of building an "
        "in-process deployment",
    )
    args = parser.parse_args(argv)

    if args.dsn is not None:
        # Remote mode: the server process owns backend, caches and the
        # replication ticker; every worker just dials the DSN. Same
        # driver, same pool — only the transport changed.
        config = TPCWConfig(num_items=args.items, num_ebs=20)
        deployment = None
        pool = ConnectionPool(lambda: connect(args.dsn), size=args.workers)
    else:
        from repro.net import register_inproc

        backend, config = build_backend(TPCWConfig(num_items=args.items, num_ebs=20))
        deployment, caches = enable_caching(backend, ["cache1"], config)
        register_inproc("tpcw/cache0", caches[0].server, database="tpcw")
        pool = ConnectionPool(
            lambda: connect("inproc://tpcw/cache0"), size=args.workers
        )
    driver = ThreadedLoadDriver(
        pool,
        config,
        MIXES[args.mix],
        workers=args.workers,
        think_time=args.think_time,
        deployment=deployment,
        seed=args.seed,
    )
    stats = driver.run(args.duration)
    pool.close()
    print(
        f"workers: {args.workers}  interactions: {stats.interactions}  "
        f"errors: {stats.errors}  shed: {stats.shed}  db calls: {stats.db_calls}"
    )
    print(
        f"wall seconds: {stats.wall_seconds:.2f}  "
        f"throughput: {stats.throughput:.1f} interactions/s"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
