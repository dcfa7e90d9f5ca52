"""E2 — §6.2.2 replication overhead.

Paper (Ordering workload):

* backend: log reader on -> 283 WIPS, off -> 311 WIPS (~10 % reduction);
* an idle middle-tier machine spends ~15 % CPU applying the change stream
  when the backend is saturated.

Reproduced two ways: analytically from the calibrated demands, and by
running the real engines with the log reader toggled and measuring the
actual extra backend work.
"""

import random


from repro.client import connect
from repro.tpcw import TPCWApplication, TPCWConfig, build_backend, enable_caching
from repro.tpcw.workload import MIXES

from benchmarks.conftest import emit


def test_bench_logreader_throughput_cost(cal_nocache, cal_cached, spec, benchmark, capsys):
    """Backend-bound throughput with and without the log reader.

    Experiment 2's setup saturates the backend (caches replicate but do
    not serve queries), so the workload demand on the backend is the
    no-cache demand; replication adds the log reader's per-command work.
    """
    _, backend_demand, _ = cal_nocache.mix_demand(MIXES["Ordering"])
    _, _, commands = cal_cached.mix_demand(MIXES["Ordering"])
    logreader_demand = commands * spec.logreader_work_per_command

    capacity = spec.backend_cpus * spec.utilization_target * spec.cpu_capacity
    wips_on = capacity / (backend_demand + logreader_demand)
    wips_off = capacity / backend_demand
    ratio = wips_on / wips_off

    apply_demand = commands * spec.apply_work_per_command
    idle_cache_cpu = wips_on * apply_demand / spec.cpu_capacity

    emit(
        capsys,
        "E2: replication overhead (Ordering, backend saturated)",
        [
            f"log reader ON : {wips_on:7.1f} WIPS   (paper: 283)",
            f"log reader OFF: {wips_off:7.1f} WIPS   (paper: 311)",
            f"throughput ratio on/off: {ratio:.3f}   (paper: 283/311 = 0.91)",
            f"idle cache machine CPU from applying: {idle_cache_cpu:.1%}   (paper: ~15 %)",
        ],
    )
    # Shape: overhead exists but is small (<= ~20 % throughput, <= ~25 % CPU).
    assert 0.8 <= ratio < 1.0
    assert 0.0 < idle_cache_cpu <= 0.25

    benchmark(lambda: cal_cached.mix_demand(MIXES["Ordering"]))


def test_bench_logreader_measured_engine_work(benchmark, capsys):
    """Measure the log reader's actual work on real engines: run the same
    Ordering traffic with the reader on and off and compare the backend's
    replication scan volume."""
    config = TPCWConfig(num_items=100, num_ebs=20, bestseller_window=100)
    backend, config = build_backend(config)
    deployment, caches = enable_caching(backend, ["c1"], config)
    connection = connect(backend, database="tpcw")
    application = TPCWApplication(connection, config, random.Random(2))
    mix = MIXES["Ordering"]
    rng = random.Random(3)
    sessions = [application.new_session() for _ in range(4)]

    def drive(steps):
        for step in range(steps):
            application.run(mix.sample(rng), sessions[step % 4])
            deployment.tick(0.05)

    deployment.set_log_reader_enabled(True)
    before = deployment.log_reader.records_scanned
    drive(60)
    scanned_on = deployment.log_reader.records_scanned - before

    deployment.set_log_reader_enabled(False)
    before = deployment.log_reader.records_scanned
    drive(60)
    scanned_off = deployment.log_reader.records_scanned - before

    emit(
        capsys,
        "E2 (engine-level): log records scanned per 60 Ordering interactions",
        [f"reader on: {scanned_on}", f"reader off: {scanned_off}"],
    )
    assert scanned_on > 0
    assert scanned_off == 0

    deployment.set_log_reader_enabled(True)
    benchmark(lambda: deployment.sync())
