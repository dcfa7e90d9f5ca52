"""Boot the real ``python -m repro serve`` process and talk to it.

Marked ``net``: this is the CI job's end-to-end check that the shipped
entry point binds a socket, prints its DSN, and serves the wire protocol
to an out-of-process client.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.client import connect

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.net
def test_serve_entry_point_over_a_real_socket():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--serve-workload",
            "shop",
            "--port",
            "0",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        dsn = None
        for _ in range(50):  # the banner is the first stdout line
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("serving "):
                dsn = line.split(None, 1)[1].strip()
                break
        assert dsn, "server process never printed its 'serving <dsn>' banner"
        assert dsn.startswith("tcp://")

        with connect(dsn, timeout=10) as connection:
            rows = connection.cursor().execute(
                "SELECT cid, cname FROM customer WHERE cid <= @n ORDER BY cid",
                {"n": 3},
            ).result.rows
            assert rows == [(1, "cust1"), (2, "cust2"), (3, "cust3")]
            connection.begin()
            connection.cursor().execute(
                "INSERT INTO customer (cid, cname) VALUES (5001, 'subproc')"
            )
            connection.commit()
            assert connection.cursor().execute(
                "SELECT cname FROM customer WHERE cid = 5001"
            ).result.scalar == "subproc"
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
