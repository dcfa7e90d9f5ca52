"""The deterministic fault injector.

Design rules (enforced by ``repro.analysis.selflint``):

* **No wall clock.** Triggers are call counts at instrumented sites and
  *virtual* timestamps fed in by the component that owns the
  :class:`~repro.common.clock.SimulatedClock` (``MTCacheDeployment.tick``
  calls :meth:`FaultInjector.tick`). Two runs with the same seed and the
  same schedule inject the same faults at the same points.
* **True no-op when idle.** Instrumented call sites guard with
  ``if injector is not None`` and :meth:`on_call` returns before touching
  the RNG when no rule matches, so an attached injector with an empty
  schedule perturbs nothing — not even the random stream.
* **Faults fire before effects.** Site hooks run before the guarded
  operation executes (a wounded link raises before shipping SQL, a
  wounded subscription raises before applying a command), which is what
  makes retry and re-delivery safe for non-idempotent work.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import LinkUnavailableError, ReplicationError


class FaultRule:
    """One fault armed at one instrumented site.

    ``site`` is an exact site string (``"link:backend:statement"``) or a
    prefix pattern ending in ``*`` (``"link:backend:*"``). The rule lets
    ``skip`` matching calls through untouched, then fires on the next
    ``count`` calls (``count=None`` means every call until removed).
    ``chance`` below 1.0 makes firing probabilistic via the injector's
    seeded RNG; at the default 1.0 the RNG is never consulted.
    """

    __slots__ = ("site", "action", "skip", "count", "latency", "chance", "seen", "fired")

    def __init__(
        self,
        site: str,
        action: Any = "unavailable",
        skip: int = 0,
        count: Optional[int] = 1,
        latency: float = 0.0,
        chance: float = 1.0,
    ):
        self.site = site
        self.action = action
        self.skip = skip
        self.count = count
        self.latency = latency
        self.chance = chance
        self.seen = 0
        self.fired = 0

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    @property
    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


class FaultInjector:
    """Seeded, virtual-time fault injector for the distributed stack.

    Components expose a nullable ``injector`` attribute and call
    :meth:`on_call` at their failure points; the injector decides — from
    armed :class:`FaultRule`\\ s — whether to raise, delay, or do nothing.
    Structural faults (crash a server, stall an agent, abort a 2PC
    participant) are methods invoked directly or via the virtual-time
    chaos schedule (:meth:`at` + :meth:`tick`).
    """

    def __init__(self, clock: Any, seed: int = 0):
        self.clock = clock
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = []
        self.enabled = True
        self.injected = 0
        self.log: List[Tuple[float, str, str]] = []
        self._schedule: List[Tuple[float, int, Callable[..., Any], tuple, dict]] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Rules and the instrumented-site hook
    # ------------------------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def rule(self, site: str, **kwargs: Any) -> FaultRule:
        """Arm and return a new :class:`FaultRule` for ``site``."""
        return self.add_rule(FaultRule(site, **kwargs))

    def clear_rules(self) -> None:
        self.rules = []

    def on_call(self, site: str, **context: Any) -> None:
        """Hook invoked by instrumented call sites before they act.

        Hot path: returns immediately when disabled or no rules are
        armed, without consulting the RNG or the clock.
        """
        if not self.enabled or not self.rules:
            return
        for rule in self.rules:
            if rule.exhausted or not rule.matches(site):
                continue
            rule.seen += 1
            if rule.seen <= rule.skip:
                continue
            if rule.chance < 1.0 and self.rng.random() >= rule.chance:
                continue
            rule.fired += 1
            self._fire(rule, site, context)

    def _fire(self, rule: FaultRule, site: str, context: dict) -> None:
        self.injected += 1
        action = rule.action
        label = action if isinstance(action, str) else getattr(action, "__name__", "callable")
        self.log.append((self.clock.now(), site, label))
        if callable(action):
            action(self, site, context)
            return
        if rule.latency > 0.0:
            # Injected latency is virtual: the shared clock advances, so
            # downstream timestamps (lag gauges, deadlines) see the delay.
            self.clock.advance(rule.latency)
        if action == "latency":
            return
        if action == "unavailable":
            raise LinkUnavailableError(f"injected fault: {site} unavailable")
        if action == "apply-error":
            raise ReplicationError(f"injected fault: apply failed at {site}")
        raise ValueError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------
    # Link wounding
    # ------------------------------------------------------------------
    def wound_link(
        self,
        link: Any,
        kind: str = "*",
        action: Any = "unavailable",
        skip: int = 0,
        count: Optional[int] = 1,
        latency: float = 0.0,
        chance: float = 1.0,
    ) -> FaultRule:
        """Arm a fault on one of a link's call paths.

        ``kind`` selects the path: ``"query"`` (``execute_remote_sql``),
        ``"statement"`` (``execute_statement_text``), ``"prepared"``
        (prepared execution), or ``"*"`` for all of them. ``skip=n,
        count=1`` fails exactly the (n+1)-th call.
        """
        link.injector = self
        return self.rule(
            f"link:{link.name}:{kind}",
            action=action,
            skip=skip,
            count=count,
            latency=latency,
            chance=chance,
        )

    def heal_link(self, link: Any) -> None:
        """Disarm every rule targeting ``link`` (the wound heals)."""
        prefix = f"link:{link.name}:"
        self.rules = [r for r in self.rules if not r.site.startswith(prefix)]

    def drop_prepared_handle(self, link: Any, sql: str) -> bool:
        """Close a remote prepared handle out from under ``link``.

        Models the target server discarding a prepared statement (memory
        pressure, failover) while the client still holds the handle id.
        The next prepared execution raises ``PreparedStatementError`` and
        the link transparently re-prepares. Returns True if a live handle
        was dropped.
        """
        handle = link.peek_handle(sql)
        if handle is None or handle.handle_id is None:
            return False
        self.log.append((self.clock.now(), f"link:{link.name}:prepared", "drop_handle"))
        link.server.close_prepared(handle.handle_id)
        self.injected += 1
        return True

    # ------------------------------------------------------------------
    # Server crash / restart
    # ------------------------------------------------------------------
    def crash_server(self, server: Any) -> None:
        self.log.append((self.clock.now(), f"server:{server.name}", "crash"))
        self.injected += 1
        server.crash()

    def restart_server(self, server: Any) -> None:
        self.log.append((self.clock.now(), f"server:{server.name}", "restart"))
        server.restart()

    def crash_cache(self, cache: Any) -> None:
        """Crash a cache server and stall its distribution agent.

        The agent's subscriber is gone, so it stops applying (watermark
        frozen, lag gauges climb) until :meth:`restart_cache`.
        """
        self.crash_server(cache.server)
        agent = cache.agent
        if agent is not None:
            agent.stall()

    def restart_cache(self, cache: Any) -> None:
        """Restart a crashed cache; its agent resumes from the watermark."""
        self.restart_server(cache.server)
        agent = cache.agent
        if agent is not None:
            agent.resume()

    # ------------------------------------------------------------------
    # Distribution agents
    # ------------------------------------------------------------------
    def stall_agent(self, agent: Any) -> None:
        self.log.append((self.clock.now(), f"agent:{agent.subscriber.name}", "stall"))
        self.injected += 1
        agent.stall()

    def resume_agent(self, agent: Any) -> None:
        self.log.append((self.clock.now(), f"agent:{agent.subscriber.name}", "resume"))
        agent.resume()

    def kill_agent(self, agent: Any) -> None:
        """Remove an agent from its distributor entirely (process death).

        The subscriber — and crucially its ``last_sequence`` watermark —
        survives; :meth:`restart_agent` builds a fresh agent around it,
        which resumes from the watermark.
        """
        self.log.append((self.clock.now(), f"agent:{agent.subscriber.name}", "kill"))
        self.injected += 1
        if agent in agent.distributor.agents:
            agent.distributor.agents.remove(agent)

    def restart_agent(self, agent: Any) -> Any:
        """Replace a killed agent with a fresh one on the same subscriber."""
        from repro.replication.agent import DistributionAgent

        self.log.append((self.clock.now(), f"agent:{agent.subscriber.name}", "restart"))
        replacement = DistributionAgent(
            agent.subscriber, agent.distributor, poll_interval=agent.poll_interval
        )
        agent.distributor.register_agent(replacement)
        return replacement

    def wound_subscription(
        self, subscription: Any, skip: int = 0, count: Optional[int] = 1
    ) -> FaultRule:
        """Make ``subscription.apply`` fail mid-batch.

        ``skip`` counts *commands* (not transactions) let through first,
        so the fault can land in the middle of a multi-command
        transaction — the crash-mid-batch recovery case.
        """
        subscription.injector = self
        return self.rule(
            f"subscription:{subscription.name}:apply",
            action="apply-error",
            skip=skip,
            count=count,
        )

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------
    def abort_participant_between_phases(self, coordinator: Any, index: int = 0) -> None:
        """Abort one participant after prepare succeeds, before commit.

        Installs a one-shot hook on the coordinator that rolls the
        participant's local transaction back in the window between the
        prepare and commit phases — the classic in-doubt scenario. The
        coordinator's commit phase then fails on that participant.
        """

        def abort(coordinator: Any) -> None:
            database, transaction = coordinator.participants[index]
            self.log.append(
                (self.clock.now(), f"dtc:{database.name}", "abort_between_phases")
            )
            self.injected += 1
            if transaction.active:
                database.transactions.rollback(transaction)

        coordinator.on_before_commit_phase = abort

    # ------------------------------------------------------------------
    # Virtual-time chaos schedule
    # ------------------------------------------------------------------
    def at(self, when: float, action: Any, *args: Any, **kwargs: Any) -> None:
        """Schedule ``action`` to run at virtual time ``when``.

        ``action`` is a callable or the name of an injector method
        (``"crash_cache"``). Fired by :meth:`tick`, which the deployment
        calls as its clock advances; ties break in insertion order.
        """
        if isinstance(action, str):
            action = getattr(self, action)
        heapq.heappush(self._schedule, (when, next(self._seq), action, args, kwargs))

    def tick(self, now: float) -> int:
        """Fire every scheduled action due at or before ``now``."""
        fired = 0
        while self._schedule and self._schedule[0][0] <= now:
            _, _, action, args, kwargs = heapq.heappop(self._schedule)
            action(*args, **kwargs)
            fired += 1
        return fired

    @property
    def pending(self) -> int:
        return len(self._schedule)
