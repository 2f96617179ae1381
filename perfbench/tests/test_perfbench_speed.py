"""Speed probes: the sampler's bookkeeping and the scaling of each time."""

import os
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import end_to_end_metrics  # noqa: E402
from speed import PROBE_REFERENCE_S, Sampler, scaled  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_scaled_is_seconds_at_reference_speed():
    assert scaled(3.0, PROBE_REFERENCE_S) == pytest.approx(3.0)
    assert scaled(3.0, 2 * PROBE_REFERENCE_S) == pytest.approx(1.5)


def test_sampler_probes_during_the_block_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(interval_s=0.02) as sampler:
        busy(0.3)
    assert len(sampler.probes) >= 3 and not sampler.child_probes
    assert all(w > 0 and c > 0 for w, c in sampler.probes)
    n = len(sampler.probes)
    assert sampler.mean_probe_s() == pytest.approx(
        (sum(w for w, _ in sampler.probes) / n, sum(c for _, c in sampler.probes) / n))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_sampler_collects_the_probes_of_forked_workers():
    with Sampler(interval_s=0.02) as sampler:
        pid = os.fork()
        if pid == 0:
            try:
                busy(0.3)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(sampler.child_probes) >= 3
    assert all(0 < c < 1 and 0 < w < 1 for w, c in sampler.child_probes)


def test_sampler_without_probes_gives_no_speed():
    with Sampler(interval_s=60) as sampler:
        pass
    with pytest.raises(RuntimeError):
        sampler.mean_probe_s()


def test_each_time_is_scaled_by_its_own_probes():
    ref = PROBE_REFERENCE_S
    rss = {"baseline_rss_kib": 1024, "peak_self_kib": 3072,
           "children_before_kib": 0, "peak_children_kib": 0}
    passes = [
        # a serial pass on a machine at half the reference speed and with
        # steal stretching wall times by another 20%, then one at reference
        # speed
        {"wall_s": 4.8, "cpu_s": 4.2, "probe_wall_s": 2.4 * ref, "probe_cpu_s": 2 * ref,
         "workload_jobs": 1, **rss},
        {"wall_s": 2.0, "cpu_s": 2.1, "probe_wall_s": ref, "probe_cpu_s": ref,
         "workload_jobs": 1, **rss},
    ]
    setups = [(0.4, 2 * ref), (0.2, ref), (0.3, ref)]
    out = end_to_end_metrics(passes, setups)
    assert out["wall_s"] == pytest.approx(2.0)
    assert out["cpu_s"] == pytest.approx(2.1)
    assert out["setup_s"] == pytest.approx(0.2)
    assert out["peak_rss_mib"] == pytest.approx(2.0)


def test_pool_pass_walls_are_scaled_by_probe_cpu_time():
    ref = PROBE_REFERENCE_S
    # the main process's probes waited behind the pool: wall time twice CPU
    pool = {"wall_s": 3.0, "cpu_s": 5.8, "probe_wall_s": 2 * ref, "probe_cpu_s": ref,
            "workload_jobs": 2, "baseline_rss_kib": 0, "peak_self_kib": 0,
            "children_before_kib": 0, "peak_children_kib": 0}
    out = end_to_end_metrics([pool], [(0.2, ref)])
    assert out["wall_s"] == pytest.approx(3.0)
    assert out["cpu_s"] == pytest.approx(5.8)
