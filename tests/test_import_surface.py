"""What a deployment loads: a one-cache TPC-W deployment that runs one
``EXEC`` imports none of the modules that only other entry points use
(fault injection, the cache advisor, ODBC redirection, the load drivers,
the self-lint, shard rebalancing, operator profiles). Each is imported
from its own module where it is used, so a fresh interpreter does not
compile it for nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

NOT_ON_THE_STATEMENT_PATH = [
    "repro.faults",
    "repro.faults.injector",
    "repro.mtcache.advisor",
    "repro.mtcache.odbc",
    "repro.tpcw.driver",
    "repro.analysis.selflint",
    "repro.sharding.rebalance",
    "repro.obs.profile",
]

_SCRIPT = """
import json, sys
from repro.client import connect
from repro.tpcw import TPCWConfig, build_backend, enable_caching

backend, config = build_backend(TPCWConfig(num_items=30, num_ebs=4))
deployment, (cache,) = enable_caching(backend, ["cache1"], config)
cursor = connect(cache, database="tpcw").cursor()
cursor.execute("EXEC getBook @i_id = 1")
print(json.dumps({"rows": len(cursor.fetchall()), "modules": sorted(sys.modules)}))
"""


def test_a_one_cache_tpcw_exec_imports_only_what_it_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["rows"] == 1
    loaded = set(outcome["modules"])
    assert "repro.mtcache.cache_server" in loaded  # the probe ran the real path
    assert [name for name in NOT_ON_THE_STATEMENT_PATH if name in loaded] == []
