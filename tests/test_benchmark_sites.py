"""The benchmark in ``perfbench/`` times functions by replacing them at the
names its ``tracer.CALL_SITES`` lists, runs commands on the scenarios its
``workloads`` names, and times the nn kernels in ``kernels``. Only its
traced smoke test, outside this suite, runs the first two; these checks
fail here first when a listed name is renamed, moved or dropped, or when
a kernel case no longer runs."""

import importlib.util
from pathlib import Path

from optiqkd.channel import SCENARIOS
from optiqkd.loop import TrainConfig
import numpy as np

from optiqkd.tcn import FEATURES, Forecaster, TcnConfig, TcnModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves_to_a_callable():
    tracer = load("tracer")
    assert tracer.CALL_SITES
    for label, sites in tracer.CALL_SITES.items():
        for owner, attr in sites:
            # methods are patched on their class, as tracer.patched reads them
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            assert callable(fn), f"{label}: {owner.__name__}.{attr} is gone"


def test_forecaster_counts_model_calls():
    # the traced run reads Forecaster.calls to count persistence fallbacks
    model = TcnModel(TcnConfig(dilations=(1,), kernel=2, hidden=4, window=2),
                     np.random.default_rng(0))
    fc = Forecaster(model)
    assert fc.calls == 0
    fc.push(np.zeros(len(FEATURES)))
    fc.forecast()  # one row pushed: the persistence fallback
    fc.push(np.zeros(len(FEATURES)))
    fc.forecast()
    assert fc.calls == 1


def test_benchmark_scenarios_are_named_scenarios():
    # the eval op runs workloads.SCENARIO; the train ops the default TrainConfig's
    assert load("workloads").SCENARIO in SCENARIOS
    train = TrainConfig()
    assert set(train.tcn_scenarios + train.ppo_scenarios) <= set(SCENARIOS)


def test_kernel_micro_timings_run():
    # the kernel cases call nn with its own layouts (the Adam state among
    # them); every case must run and give a finite, positive time
    out = load("kernels").run_kernels(0)
    assert len(out) == 7
    for name, case in out.items():
        assert np.isfinite(case["us"]) and case["us"] > 0, name
