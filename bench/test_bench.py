"""Self-test of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

Checks the tracer's self-time arithmetic on a nested toy call with a
fake clock, which probes a host speed factor is taken from, that a
short run of every workload passes its gates and reports exactly the
metrics ``BENCHMARK.json`` names, and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import SLACK_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ticking_clock():
    ticks = iter(range(0, 10_000, 10))
    return lambda: next(ticks)


def test_self_time_of_nested_calls():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(ns.inner(x))
    tracer = Tracer(clock=_ticking_clock())
    tracer.wrap(ns, "inner", "toy.inner")
    tracer.wrap(ns, "outer", "toy.outer")

    assert ns.outer(1) == 3
    # outer [0, 50], inner [10, 20] and [30, 40]: outer's self time is
    # 50 - 2 * 10 and all self times add up to the root span.
    assert tracer.summary() == {"toy.inner": (2, 20e-9), "toy.outer": (1, 30e-9)}
    assert tracer.self_times_ns().sum() == 50
    assert tracer.calls_under("toy.inner", "toy.outer") == 2

    tracer.uninstall()
    ns.outer(1)
    assert len(tracer) == 3


def test_raising_call_is_counted_and_closed():
    ns = types.SimpleNamespace()

    def fail():
        raise KeyError("x")

    ns.fail = fail
    ns.outer = lambda: ns.fail()
    tracer = Tracer(clock=_ticking_clock())
    tracer.wrap(ns, "fail", "toy.fail")
    tracer.wrap(ns, "outer", "toy.outer")
    with pytest.raises(KeyError):
        ns.outer()
    assert tracer.counts == {"toy.fail.KeyError": 1, "toy.outer.KeyError": 1}
    assert tracer.summary() == {"toy.fail": (1, 10e-9), "toy.outer": (1, 20e-9)}


def test_speed_factor_uses_probes_near_each_call():
    speed = HostSpeed()
    speed.probe()
    assert all(f[0] > 0 for f in speed.factors.values())
    speed.times = [10.0, 20.0, 30.0 + SLACK_S, 50.0]
    speed.factors["bulk"] = [1.0, 2.0, 4.0, 8.0]
    starts = np.array([20.0, 10.0 + SLACK_S / 2, 40.0])
    ends = np.array([30.0, 20.0 - 1.5 * SLACK_S, 45.0])
    # The last call has no probe near it and gets the mean of all probes.
    assert speed.factors_around("bulk", starts, ends).tolist() == [3.0, 1.0, 3.75]


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["desk", "large", "batch_file"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_passes_gates(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "desk", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
