"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from g2lab import (clifford, connection, deform, field,  # noqa: E402
                   g2linear, octonion)
from spans import (Tracer, install, layer_metrics, rk4_steps,  # noqa: E402
                   self_times)
import hostspeed  # noqa: E402
from hostspeed import PROBE_REF_S, Sampler, StealClock  # noqa: E402
from run import END_TO_END_UNITS, layer_unit, measure_setup  # noqa: E402
from workloads import WORKLOADS, headroom_digits, row_failed  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds d [6, 7] and e [7, 8.5]
    spans = [
        [0, 0.0, 10.0, -1, None],
        [1, 1.0, 4.0, 0, None],
        [2, 2.0, 3.0, 1, None],
        [3, 5.0, 9.0, 0, None],
        [4, 6.0, 7.0, 3, None],
        [5, 7.0, 8.5, 3, None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # the self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


@pytest.mark.parametrize("t_end, h", [
    (1.0, 0.3), (0.37, 0.05), (2.5, 1e-3 * 7), (1.0, 1.0 / 16), (1.0, 1e-2),
    (-0.9, 0.2), (0.01, 1.0), (1.0, 1.0 / 3.0),
    # t_end / h lands a rounding error above a whole number
    (0.9, 0.03), (2.1, 0.3),
])
def test_rk4_steps_matches_the_integrator(t_end, h):
    assert rk4_steps(t_end, h) == connection._steps_for(t_end, h)


def test_rk4_steps_are_counted_per_call():
    chart = connection.flat_chart(3)
    tracer = Tracer()
    patch = install(tracer)
    try:
        path = connection.integrate_geodesic(chart, np.zeros(3),
                                             np.ones(3) * 0.1, 0.37, 0.05)
        connection.geodesic_with_frame(chart, np.zeros(3), np.ones(3) * 0.1,
                                       h=0.3)
        connection.parallel_transport(chart, path, np.ones(3), h=0.1)
    finally:
        patch.restore()
    metrics = layer_metrics(tracer)
    assert len(path.ts) - 1 == 8
    assert metrics["connection.rk4_steps"] == 8 + 4 + 4
    assert metrics["connection.integrate_geodesic.calls"] == 1


def test_patch_rebinds_every_alias_and_restores_them():
    original = octonion.mul
    original_metric = g2linear.metric_from_3form
    original_data = field.PhiField.data
    assert deform.mul is original and clifford.mul is original
    assert field.metric_from_3form is original_metric
    tracer = Tracer()
    patch = install(tracer)
    try:
        wrapper = octonion.mul
        assert wrapper is not original
        assert deform.mul is wrapper and clifford.mul is wrapper
        assert field.metric_from_3form is g2linear.metric_from_3form
        assert field.metric_from_3form is not original_metric
        assert field.PhiField.data is not original_data
        a = octonion.Octonion(np.arange(8.0))
        # a product through the operator resolves the module global
        a * a
        deform.mul(a, a)
    finally:
        patch.restore()
    assert octonion.mul is original
    assert deform.mul is original and clifford.mul is original
    assert field.metric_from_3form is original_metric
    assert g2linear.metric_from_3form is original_metric
    assert field.PhiField.data is original_data
    assert not patch.bindings
    assert layer_metrics(tracer)["octonion.mul.calls"] == 2


def test_patch_restores_every_module_attribute():
    import g2lab.cli
    import g2lab.g2linear
    modules = [octonion, deform, clifford, field, connection, g2lab.cli,
               g2lab.g2linear]
    before = [dict(vars(m)) for m in modules]
    patch = install(Tracer())
    assert any(vars(m)[k] is not v for m, b in zip(modules, before)
               for k, v in b.items())
    patch.restore()
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_exp_inverse_shots_and_failures():
    chart = connection.flat_chart(2, half_width=1.0)
    tracer = Tracer()
    patch = install(tracer)
    try:
        connection.exp_inverse(chart, np.zeros(2), np.array([0.3, 0.2]))
        with pytest.raises(connection.LeftDomain):
            connection.exp_map(chart, np.zeros(2), np.array([5.0, 0.0]))
    finally:
        patch.restore()
    metrics = layer_metrics(tracer)
    assert metrics["connection.exp_inverse.shots_per_call"] == 1.0
    # raised inside integrate_geodesic, passed through exp_map: one failure
    assert metrics["connection.failures"] == 1


def test_gate_fails_non_finite_and_out_of_tolerance_rows():
    ok = {"name": "a", "max_residual": 1e-14, "tolerance": 1e-12,
          "pass": True}
    assert not row_failed(ok)
    assert row_failed(dict(ok, max_residual=math.nan))
    assert row_failed(dict(ok, max_residual=math.inf))
    assert row_failed(dict(ok, max_residual=1e-11))
    assert row_failed(dict(ok, **{"pass": False}))
    assert headroom_digits([ok]) == pytest.approx(2.0)
    assert headroom_digits([dict(ok, max_residual=0.0)]) == 16.0


def test_benchmark_json_names_every_metric_a_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"]
            for m in bench["end_to_end"]} == END_TO_END_UNITS
    per_layer = list(layer_metrics(Tracer())) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert all(m["unit"] == layer_unit(m["name"]) for m in bench["per_layer"])


def _spin(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_sampler_takes_the_probes_out_of_the_region():
    spent = []

    def probe():
        # a probe that takes 4 ms and reads as a host at half speed
        t0 = time.perf_counter()
        _spin(0.004)
        spent.append(time.perf_counter() - t0)
        return 2 * PROBE_REF_S

    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Sampler(interval=0.01, probe=probe) as speed:
        _spin(0.2)
    total = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(speed.samples) == len(spent) >= 5
    assert speed.factor == pytest.approx(0.5)
    # the region keeps all of its time except the steal and the handler's,
    # which is the probe's and a little bookkeeping
    assert speed.steal_s >= 0.0
    taken_out = total - speed.wall_s - speed.steal_s
    assert sum(spent) - 1e-3 <= taken_out <= sum(spent) + 2e-3 * len(spent)
    assert 0.0 < speed.cpu_s < speed.wall_s + 0.05


def test_sampler_samples_a_region_shorter_than_its_interval():
    with Sampler(interval=10.0) as speed:
        pass
    assert len(speed.samples) == 1
    assert speed.wall_s >= 0.0 and speed.factor > 0.0


def test_setup_sample_is_scaled_by_the_probe():
    seconds, scaled = measure_setup(1)[0]
    assert seconds > 0.0 and scaled > 0.0


def test_steal_clock_counts_the_current_cpu_outside_skips(monkeypatch):
    readings = iter([[10, 50], [12, 60], [15, 70], [15, 90]])
    monkeypatch.setattr(hostspeed, "_steal_jiffies", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "_current_cpu", lambda: 1)
    clock = StealClock()
    clock.tick()   # CPU 1 stole 10 ticks
    clock.skip()   # 10 more, inside a probe
    clock.tick()   # 20 more
    assert clock.seconds == pytest.approx(30 / StealClock.HZ)


def test_steal_clock_without_proc_counts_nothing(monkeypatch):
    monkeypatch.setattr(hostspeed, "_steal_jiffies", lambda: None)
    clock = StealClock()
    clock.tick()
    assert clock.seconds == 0.0
