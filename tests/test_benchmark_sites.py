"""The benchmark in ``perfbench/`` times functions by replacing them at the
names its ``tracer.CALL_SITES`` and ``tracer.EpisodeTimer`` list, runs
commands on the scenarios its ``workloads`` names, checks each command's
outputs with ``checks``, and times the nn kernels in ``kernels``. Only its
traced smoke test, outside this suite, runs the first two; these checks
fail here first when a listed name is renamed, moved, dropped or no longer
called, when an output check fails or raises, or when a kernel case no
longer runs."""

import importlib.util
from pathlib import Path

from optiqkd import cli, loop
from optiqkd.channel import SCENARIOS
from optiqkd.loop import TrainConfig
import numpy as np

from optiqkd.tcn import FEATURES, Forecaster, TcnConfig, TcnModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY = ["--set", "tcn.dilations=1,2", "--set", "tcn.hidden=4", "--set", "tcn.window=8",
        "--set", "tcn.epochs=1", "--set", "train.tcn_blocks=20",
        "--set", "ppo.rollout=16", "--set", "ppo.minibatch=8",
        "--set", "train.ppo_updates=1", "--set", "train.ppo_blocks=20",
        "--set", "channel.n_pulses=10000"]


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


def test_channel_and_rate_sites_are_called(tmp_path):
    # a traced run times Simulator.step on its class and the decoy rate at
    # the rates names its caller looks up on each call; a caller that bound
    # one of them at import would leave its per-layer metrics at zero, and
    # the abort ratio reads each step's result
    tracer = load("tracer")
    labels = ("channel.Simulator.step", "rates.decoy_bounds", "rates.bb84_key_rate")
    calls = {label: [] for label in labels}

    def counting(label):
        def make(fn):
            def counted(*args, **kwargs):
                calls[label].append(None)
                out = fn(*args, **kwargs)
                calls[label][-1] = out
                return out
            return counted
        return make

    with tracer.patched([(owner, attr, counting(label))
                         for label in labels for owner, attr in tracer.CALL_SITES[label]]):
        assert cli.main(["simulate", "--protocol", "bb84", "--blocks", "5",
                         "--out", str(tmp_path)]) == 0
    assert all(calls.values()), {label: len(c) for label, c in calls.items()}
    assert all(isinstance(t.aborted, bool) for t in calls["channel.Simulator.step"])


def test_episode_timer_targets_are_called(tmp_path):
    # EpisodeTimer wraps cli.train_forecaster, whose call ends the corpus
    # build that tcn-train's block_ms times, cli.run_episode (eval and
    # simulate) and loop.run_episode (train_policy); a missing target fails
    # the benchmark's set-up, one no longer called leaves its time empty
    timer = load("tracer").EpisodeTimer()
    originals = (cli.train_forecaster, cli.run_episode, loop.run_episode)
    with timer.installed():
        assert cli.main(["train", "tcn", "--out", str(tmp_path)] + TINY) == 0
        assert timer.train_start is not None
        assert cli.main(["train", "ppo", "--tcn", str(tmp_path / "tcn_seed0.ckpt"),
                         "--out", str(tmp_path)] + TINY) == 0
        assert [c for c, *_ in timer.episodes] == ["ml"]
        assert cli.main(["simulate", "--blocks", "5", "--out", str(tmp_path)] + TINY) == 0
        assert [(c, blocks) for c, blocks, *_ in timer.episodes] == [("ml", 20), ("static", 5)]
    assert (cli.train_forecaster, cli.run_episode, loop.run_episode) == originals


def test_output_checks_pass_on_each_op(tmp_path):
    # every benchmark op is checked by checks.check_op, which reads the
    # package (the policy's actor_params and critic_params among it); the
    # benchmark treats an exception other than OSError, ValueError,
    # KeyError or IndexError from a check as a crashed run
    checks, workloads = load("checks"), load("workloads")
    tcn = workloads.train_tcn(3, str(tmp_path / "tcn"), epochs=1, blocks=20)
    ppo = workloads.train_ppo(3, str(tmp_path / "ppo"), tcn["ckpt"], updates=1, blocks=20)
    ev = workloads.evaluate(3, str(tmp_path / "eval"), tcn["ckpt"], ppo["ckpt"],
                            blocks=workloads.WARMUP_BLOCKS + 10)
    for op in (tcn, ppo, ev):
        rc = cli.main(op["argv"] + TINY)
        assert checks.check_op(op, Path(op["out"]), rc) == [], op["argv"][:2]


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
