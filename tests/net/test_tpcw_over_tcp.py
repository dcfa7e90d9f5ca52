"""The TPC-W mix over TCP loopback is statement-for-statement identical
to the same mix run in-process.

Two independent, identically-seeded deployments execute the same
interaction sequence — one through the in-process connect() path, one
through a real ReproServer socket.  Every ``_exec`` call is recorded
(procedure, parameters, result rows) and the two transcripts must match
exactly: the wire adds transport, never semantics.  Checked plans are on
(conftest env), so cache-side plan validation also runs on both sides.
"""

from __future__ import annotations

import random

from repro.net import ReproServer, register_inproc, unregister_inproc
from repro.tpcw.application import TPCWApplication
from repro.tpcw.config import TPCWConfig
from repro.tpcw.setup import build_backend, enable_caching
from repro.tpcw.workload import MIXES
from tests.conftest import stop_wire_server

INTERACTIONS = 60


def _deployment():
    config = TPCWConfig(num_items=100, num_ebs=10)
    backend, config = build_backend(config)
    deployment, caches = enable_caching(backend, ["cache0"], config)
    # Let the log reader / subscription agents reach steady state once.
    deployment.clock.advance(2.0)
    deployment.tick()
    return deployment, caches[0], config


def _recorded(app):
    """Wrap ``app._exec`` to transcribe every database call it makes."""
    transcript = []
    original = app._exec

    def wrapped(procedure, **params):
        cursor = original(procedure, **params)
        # Read the underlying result directly: consuming the cursor here
        # would disturb the application's own fetch position.
        transcript.append(
            (procedure, tuple(sorted(params.items())), tuple(cursor.result.rows))
        )
        return cursor

    app._exec = wrapped
    return transcript


def _drive(app, deployment):
    """Run the same deterministic interaction sequence on ``app``."""
    mix = MIXES["Shopping"]
    rng = random.Random(4242)
    sessions = [app.new_session() for _ in range(4)]
    for step in range(INTERACTIONS):
        session = sessions[step % len(sessions)]
        interaction = mix.sample(rng)
        app.run(interaction, session)
        deployment.clock.advance(0.5)
        deployment.tick()


def test_tpcw_mix_identical_in_process_and_over_tcp():
    local_deployment, local_cache, local_config = _deployment()
    remote_deployment, remote_cache, remote_config = _deployment()

    register_inproc("t/tpcw-identity", local_cache)
    server = ReproServer.serve(remote_cache)
    try:
        local_app = TPCWApplication("inproc://t/tpcw-identity", local_config)
        remote_app = TPCWApplication(server.dsn, remote_config)
        local_log = _recorded(local_app)
        remote_log = _recorded(remote_app)

        _drive(local_app, local_deployment)
        _drive(remote_app, remote_deployment)

        assert len(local_log) == len(remote_log)
        assert local_log, "the mix must actually issue database calls"
        for index, (local_call, remote_call) in enumerate(
            zip(local_log, remote_log)
        ):
            assert local_call == remote_call, (
                f"statement {index} diverged over the wire:\n"
                f"  in-process: {local_call[:2]}\n"
                f"  over TCP:   {remote_call[:2]}"
            )
        assert local_app.db_calls == remote_app.db_calls
    finally:
        stop_wire_server(server)
        unregister_inproc("t/tpcw-identity")
