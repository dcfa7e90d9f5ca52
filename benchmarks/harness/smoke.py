"""Real-CLI smoke: the shipped ``python -m repro serve`` entry point.

The timed workloads run the TCP server in-process, because a server
subprocess made throughput repeat four times worse (README, "Load
model"). So the path users actually start is checked here, untimed: boot
the CLI, compare a sample of reads over its printed DSN with a locally
built copy of the same (deterministically populated) backend, then run
200 Shopping interactions and require that none fails. The only number
kept is how long the server took to come up.
"""

from __future__ import annotations

import random
import select
import subprocess
import sys
import time
from typing import Any, Dict, List

INTERACTIONS = 200
BOOT_TIMEOUT_S = 60


def serve_smoke(seed: int) -> Dict[str, Any]:
    from repro.client import connect
    from repro.tpcw import MIXES, TPCWApplication, build_backend

    from benchmarks.harness.workloads import (
        USERS,
        stratified,
        tpcw_config,
        tpcw_identity_reads,
    )

    config = tpcw_config()
    problems: List[str] = []
    started = time.perf_counter()
    # Inherits this child's PYTHONPATH, which already reaches src/.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--items", str(config.num_items)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        if not select.select([server.stdout], [], [], BOOT_TIMEOUT_S)[0]:
            raise RuntimeError(f"serve printed nothing within {BOOT_TIMEOUT_S}s")
        line = server.stdout.readline()
        boot_seconds = time.perf_counter() - started
        if not line.startswith("serving tcp://"):
            raise RuntimeError(f"serve printed {line!r} instead of its DSN")
        connection = connect(line.split()[1], timeout=BOOT_TIMEOUT_S)
        reference, _ = build_backend(config)
        direct = connect(reference, database="tpcw")
        reads = tpcw_identity_reads(random.Random(seed), config)
        for sql, params in reads:
            over_wire = connection.cursor().execute(sql, params).fetchall()
            expected = direct.cursor().execute(sql, params).fetchall()
            if [tuple(row) for row in over_wire] != [tuple(row) for row in expected]:
                problems.append(f"serve: {sql} {params}: rows differ from a fresh backend's")
        application = TPCWApplication(connection, config, random.Random(seed))
        sessions = [application.new_session() for _ in range(USERS)]
        schedule = stratified(MIXES["Shopping"].weights, INTERACTIONS, random.Random(seed))
        for index, name in enumerate(schedule):
            try:
                application.run(name, sessions[index % USERS])
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                problems.append(f"serve: {name} #{index}: {type(exc).__name__}: {exc}")
        connection.close()
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    return {
        "attempted": len(reads) + INTERACTIONS,
        "failed": len(problems),
        "problems": problems[:10],
        "net.serve_boot_s": boot_seconds,
    }
