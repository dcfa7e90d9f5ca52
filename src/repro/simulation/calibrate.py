"""Calibration: measure real per-interaction service demands.

Each TPC-W interaction is executed repeatedly against real engines — once
in the backend-only configuration and once through an MTCache server — and
the engine's work counters (operator row touches, a CPU proxy) are
attributed per tier. Replication cost is calibrated from the number of
commands the log reader produces per interaction.

The resulting :class:`InteractionProfile` set is the simulator's ground
truth: the simulated cluster runs the *measured* workload, not a guessed
one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.client import connect
from repro.tpcw.application import TPCWApplication
from repro.tpcw.config import TPCWConfig
from repro.tpcw.setup import build_backend, enable_caching
from repro.tpcw.workload import INTERACTIONS, WorkloadMix


@dataclass
class InteractionProfile:
    """Measured demands for one interaction in one configuration."""

    name: str
    cache_work: float  # engine work on the web/cache machine
    backend_work: float  # engine work on the backend machine
    db_calls: float  # database requests issued
    replication_commands: float  # commands generated per execution


@dataclass
class CalibrationResult:
    """Profiles for every interaction in one configuration."""

    mode: str  # "nocache" | "cached"
    profiles: Dict[str, InteractionProfile]
    config: TPCWConfig
    # Observability snapshots of the servers the calibration ran against
    # (keys: "backend" and, in cached mode, "cache"); lets benchmark
    # reports show cache hit rates and plan-shape counts alongside demand.
    obs_snapshot: Dict[str, Dict] = field(default_factory=dict)

    def mix_demand(self, mix: WorkloadMix) -> Tuple[float, float, float]:
        """Expected (cache_work, backend_work, repl_commands) per interaction
        under a mix."""
        cache = backend = commands = 0.0
        for name, weight in mix.weights.items():
            profile = self.profiles[name]
            cache += weight * profile.cache_work
            backend += weight * profile.backend_work
            commands += weight * profile.replication_commands
        return cache, backend, commands


def calibrate(
    mode: str = "cached",
    config: Optional[TPCWConfig] = None,
    repetitions: int = 8,
    seed: int = 1234,
) -> CalibrationResult:
    """Measure per-interaction demands in the given configuration.

    ``mode="nocache"``: application talks straight to the backend.
    ``mode="cached"``: application talks to an MTCache server with the
    paper's cached views and copied procedures.
    """
    config = config or TPCWConfig()
    backend, config = build_backend(config)
    deployment = None
    if mode == "cached":
        deployment, caches = enable_caching(backend, ["calibration_cache"], config)
        target_server = caches[0].server
    elif mode == "nocache":
        target_server = backend
    else:
        raise ValueError(f"unknown calibration mode {mode!r}")

    connection = connect(target_server, database="tpcw")
    application = TPCWApplication(connection, config, random.Random(seed))

    profiles: Dict[str, InteractionProfile] = {}
    for interaction in INTERACTIONS:
        cache_work = backend_work = calls = commands = 0.0
        for repetition in range(repetitions):
            session = application.new_session()
            # Warm the session state the interaction depends on.
            if interaction in ("buy_request", "buy_confirm", "shopping_cart"):
                application.shopping_cart(session)
            if deployment is not None:
                deployment.sync()

            backend_before = backend.total_work.rows_processed
            cache_before = (
                target_server.total_work.rows_processed if mode == "cached" else 0.0
            )
            calls_before = application.db_calls
            commands_before = (
                deployment.log_reader.commands_produced if deployment else 0
            )

            application.run(interaction, session)
            if deployment is not None:
                deployment.clock.advance(0.01)
                deployment.sync()

            backend_work += backend.total_work.rows_processed - backend_before
            if mode == "cached":
                cache_work += target_server.total_work.rows_processed - cache_before
            calls += application.db_calls - calls_before
            if deployment is not None:
                commands += deployment.log_reader.commands_produced - commands_before
        profiles[interaction] = InteractionProfile(
            name=interaction,
            cache_work=cache_work / repetitions,
            backend_work=backend_work / repetitions,
            db_calls=calls / repetitions,
            replication_commands=commands / repetitions,
        )
    from repro.obs.export import server_snapshot

    obs_snapshot = {"backend": server_snapshot(backend)}
    if mode == "cached":
        obs_snapshot["cache"] = server_snapshot(target_server)
    return CalibrationResult(
        mode=mode, profiles=profiles, config=config, obs_snapshot=obs_snapshot
    )
