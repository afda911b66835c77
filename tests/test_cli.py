import json

import numpy as np
import pytest

from optiqkd import nn
from optiqkd.cli import (RATES_CSV_HEADER, TRAIN_PROGRESS_HEADER, UsageError, main,
                         parse_seeds)
from optiqkd.controller import OBS_DIM, ActorCritic, PpoConfig, save_policy
from optiqkd.loop import EPISODE_CSV_HEADER
from optiqkd.tcn import FEATURES, TcnConfig, TcnModel, save_tcn

from oracles import finite_penalty_oracle, operating_point_oracle

FAST_TCN = [
    "--set", "tcn.dilations=1,2", "--set", "tcn.hidden=6",
    "--set", "tcn.window=8", "--set", "tcn.epochs=3",
    "--set", "train.tcn_blocks=60", "--set", "train.tcn_scenarios=[\"nominal\"]",
]
FAST_PPO = [
    "--set", "ppo.rollout=32", "--set", "ppo.minibatch=16",
    "--set", "train.ppo_updates=2", "--set", "train.ppo_blocks=40",
    "--set", "channel.n_pulses=100000",
]


def run(args):
    return main(args)


@pytest.fixture
def checkpoints(tmp_path):
    """Paths of a small untrained forecaster and policy."""
    tcn, policy = str(tmp_path / "tcn.ckpt"), str(tmp_path / "policy.ckpt")
    save_tcn(tcn, TcnModel(TcnConfig(dilations=(1,), kernel=2, hidden=4, window=2),
                           np.random.default_rng(1)))
    save_policy(policy, ActorCritic(PpoConfig(hidden=(8, 8)), rng=np.random.default_rng(2)))
    return tcn, policy


class TestRates:
    def test_full_grid_monotone(self, tmp_path):
        assert run(["rates", "--protocol", "bb84", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rates_bb84.csv").read_text().strip().split("\n")
        assert rows[0] == RATES_CSV_HEADER
        assert len(rows) == 42  # header + 41 distances (0..200 step 5)
        r_pp = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(a >= b - 1e-15 for a, b in zip(r_pp, r_pp[1:]))
        assert r_pp[0] == max(r_pp)  # zero distance row is maximal

    def test_all_protocols_emit(self, tmp_path):
        # default link and protocol; COW keys 0.9 of its non-monitor bins
        for proto, q_sift in (("bb84", 0.5), ("e91", 0.5), ("cow", 0.81)):
            assert run(["rates", "--protocol", proto, "--out", str(tmp_path),
                        "--dmax", "50"]) == 0
            rows = (tmp_path / f"rates_{proto}.csv").read_text().strip().split("\n")
            assert len(rows) == 12
            for row in rows[1:]:
                d, q_mu, e_mu, r_pp, r_fin, r_bps = map(float, row.split(","))
                want_q, want_e, want_r = operating_point_oracle(proto, d, q_sift)
                want_fin = max(0.0, want_r - finite_penalty_oracle(1e6, 1e-10))
                assert r_pp > 0.0
                for got, exp in zip((q_mu, e_mu, r_pp, r_fin, r_bps),
                                    (want_q, want_e, want_r, want_fin, want_r * 2.5e8)):
                    assert got == pytest.approx(exp, rel=1e-9, abs=0.0), (proto, d)

    def test_unknown_protocol_usage_error(self, tmp_path, capsys):
        assert run(["rates", "--protocol", "b92", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("grid,distances", [
        (["--dmin", "0", "--dmax", "11", "--dstep", "4"], [0, 4, 8]),
        (["--dmin", "0", "--dmax", "12", "--dstep", "4"], [0, 4, 8, 12]),
        (["--dmin", "0", "--dmax", "1", "--dstep", "0.1"], [i / 10 for i in range(11)]),
        (["--dmin", "0", "--dmax", "0.3", "--dstep", "0.1"], [0, 0.1, 0.2, 0.3]),
        (["--dmin", "10", "--dmax", "10"], [10]),
    ])
    def test_grid_ends_at_last_step_within_dmax(self, tmp_path, grid, distances):
        assert run(["rates", "--out", str(tmp_path)] + grid) == 0
        rows = (tmp_path / "rates_bb84.csv").read_text().strip().split("\n")[1:]
        got = [float(r.split(",")[0]) for r in rows]
        assert got == pytest.approx(distances, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("grid", [["--dmin", "50", "--dmax", "10"],
                                      ["--dstep", "-5"], ["--dstep", "0"],
                                      ["--dmax", "inf"], ["--dstep", "nan"]])
    def test_unrunnable_grid_usage_error(self, tmp_path, grid):
        assert run(["rates", "--out", str(tmp_path)] + grid) == 1
        assert not (tmp_path / "rates_bb84.csv").exists()

    def test_negative_dmin_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["rates", "--dmin", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --dmin must be >= 0")
        assert not out.exists()


class TestShowConfig:
    def test_prints_defaults(self, capsys):
        assert run(["show-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["link"]["alpha_db_per_km"] == 0.2
        assert cfg["protocol"]["bb84"]["mu_s"] == 0.5

    def test_override_applied(self, capsys):
        assert run(["show-config", "--set", "link.distance_km=25"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["link"]["distance_km"] == 25.0

    def test_unknown_key_usage_error(self):
        # --protocol alone picks the protocol; the layer count is len(tcn.dilations);
        # link.e_d alone sets the base misalignment
        for pair in ("link.bogus=1", "link=5", "tcn.layers=2", "protocol.kind=cow",
                     "protocol.kind=xyz", "link.theta=0.3"):
            assert run(["show-config", "--set", pair]) == 1, pair

    @pytest.mark.parametrize("pair", ["link.distance_km=abc", "link.e_d=abc",
                                      "tcn.epochs=abc", "tcn.dilations=1,x",
                                      "tcn.epochs=2.5"])
    def test_malformed_value_usage_error(self, capsys, pair):
        assert run(["show-config", "--set", pair]) == 1
        assert repr(pair.partition("=")[0]) in capsys.readouterr().err

    def test_non_integral_list_item_usage_error(self, capsys):
        assert run(["show-config", "--set", "tcn.dilations=[1.5,2,4,8]"]) == 1
        # one unquoted line
        assert capsys.readouterr().err == (
            "usage error: configuration key 'tcn.dilations' needs an integer, got 1.5\n")

    def test_non_integral_config_file_value_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tcn": {"epochs": 2.5}}))
        assert run(["train", "tcn", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "'tcn.epochs'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,value", [
        ("channel", {"n_pulses": 100000.7}),
        ("train", {"tcn_scenarios": "nominal"}),
        ("train", {"tcn_scenarios": [5]}),
        ("channel", {"abort_qber": True}),
    ])
    def test_config_file_value_of_wrong_type_runtime_error(self, tmp_path, capsys, section,
                                                           value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: value}))
        assert run(["train", "tcn", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert repr(f"{section}.{next(iter(value))}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("document", [[1, 2], "nominal", 5])
    def test_config_file_not_an_object_runtime_error(self, tmp_path, capsys, document):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(document))
        assert run(["train", "tcn", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_for_int_key(self, capsys):
        assert run(["show-config", "--set", "channel.n_pulses=1e5"]) == 0
        assert json.loads(capsys.readouterr().out)["channel"]["n_pulses"] == 100000

    def test_malformed_config_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        assert run(["show-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid JSON" in err

    @pytest.mark.parametrize("argv,name", [
        (["--set", "link.distance_km=-3"], "distance_km"),
        (["--set", "protocol.bb84.mu_w=0.9"], "mu_w"),
        (["--set", "train.ppo_blocks=1"], "ppo_blocks"),
        ({"tcn": {"epochs": "abc"}}, "'tcn.epochs'"),  # --config, as rates reads it
    ])
    def test_value_no_command_runs_runtime_error(self, tmp_path, capsys, argv, name):
        # show-config refuses what every other command refuses
        if isinstance(argv, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv))
            argv = ["--config", str(path)]
        assert run(["show-config"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["--set", "protocol.bb84.mu_w=0.9"], "protocol.bb84: need 0 < mu_w < mu_s"),
        (["--set", "link.distance_km=-3"], "link: distance_km must be >= 0"),
        # a cast error names its own full key, once
        ({"protocol": {"bb84": {"mu_s": "abc"}}},
         "configuration key 'protocol.bb84.mu_s' has unreadable value 'abc'"),
    ])
    def test_range_error_names_the_section(self, tmp_path, capsys, argv, message):
        if isinstance(argv, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv))
            argv = ["--config", str(path)]
        assert run(["show-config"] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_overlay(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"link": {"distance_km": 10.0}}))
        assert run(["show-config", "--config", str(path)]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["link"]["distance_km"] == 10.0


class TestSimulate:
    def test_episode_csv(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", "nominal", "--seed", "3",
                    "--blocks", "20", "--out", str(tmp_path),
                    "--set", "channel.n_pulses=100000"]) == 0
        path = tmp_path / "episode_nominal_static_seed3.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == EPISODE_CSV_HEADER
        assert len(lines) == 21

    def test_fixed_recalib_schedule_not_configurable(self, tmp_path):
        # the recalib scan and the adaptation window are module constants,
        # and the key fraction follows p_z (or COW's monitor share)
        for key in ("loop.recalib_period=30", "loop.recalib_grid=[0.2,0.6]",
                    "loop.pre_event_window=20", "protocol.q=0.8"):
            assert run(["simulate", "--controller", "recalib", "--blocks", "20",
                        "--out", str(tmp_path), "--set", key]) == 1

    def test_unknown_scenario_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", "hurricane", "--out",
                    str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()
        # the help lists every scenario name
        with pytest.raises(SystemExit):
            run(["simulate", "--help"])
        assert "nominal,noise-sweep,splice-3db,sine-drift" in capsys.readouterr().out

    def test_ml_without_policy_is_runtime_error(self, tmp_path):
        assert run(["simulate", "--controller", "ml", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("controller", ["static", "recalib", "ml"])
    def test_writes_the_bytes_of_a_one_job_eval(self, tmp_path, checkpoints, controller):
        tcn, policy = checkpoints
        common = ["--scenario", "splice-3db", "--blocks", "60", "--tcn", tcn,
                  "--policy", policy, "--set", "channel.n_pulses=100000"]
        assert run(["simulate", "--controller", controller, "--seed", "4",
                    "--out", str(tmp_path / "sim")] + common) == 0
        assert run(["eval", "--controllers", controller, "--seeds", "4",
                    "--out", str(tmp_path / "eval")] + common) == 0
        name = f"episode_splice-3db_{controller}_seed4.csv"
        assert [p.name for p in (tmp_path / "eval").iterdir()] == [name]
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "eval" / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--controller", "ml"],
        ["eval", "--controllers", "static,ml", "--seeds", "1"],
    ])
    def test_ml_without_forecaster_is_runtime_error(self, tmp_path, capsys, checkpoints,
                                                    argv):
        out = tmp_path / "o"
        assert run(argv + ["--policy", checkpoints[1], "--out", str(out)]) == 2
        assert "requires --tcn" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_tcn_round_trip_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["train", "tcn", "--seed", "1", "--out", str(out)]
                       + FAST_TCN) == 0
        ck1 = (out1 / "tcn_seed1.ckpt").read_bytes()
        ck2 = (out2 / "tcn_seed1.ckpt").read_bytes()
        assert ck1 == ck2  # same seed twice: byte-identical checkpoints
        loss_rows = (out1 / "tcn_loss_seed1.csv").read_text().strip().split("\n")
        assert loss_rows[0] == "epoch,train_mse"
        assert loss_rows[-1].startswith("final,")

        # reloaded checkpoint reproduces the logged final evaluation loss
        from optiqkd.tcn import load_tcn, dataset_mse
        from optiqkd.loop import forecaster_corpus
        from optiqkd.cli import _load_cfg, build_parser
        parser = build_parser()
        args = parser.parse_args(["train", "tcn", "--seed", "1",
                                  "--out", str(out1)] + FAST_TCN)
        cfg = _load_cfg(args)
        from optiqkd import config as cfgmod
        model = load_tcn(str(out1 / "tcn_seed1.ckpt"))
        dataset = forecaster_corpus(
            cfgmod.typed(cfg, "train"), model.cfg.window, cfgmod.typed(cfg, "link"),
            cfgmod.typed(cfg, "protocol"), cfgmod.typed(cfg, "channel"), 1)
        mse = dataset_mse(dataset, model)
        logged = float(loss_rows[-1].split(",")[1])
        assert mse == pytest.approx(logged, rel=1e-9)

    @pytest.mark.parametrize("what,pair,field", [
        ("tcn", "tcn.window=16", "receptive field"),  # the default field is 31
        ("tcn", "tcn.epochs=0", "epochs"),
        ("tcn", "tcn.batch_size=0", "batch_size"),
        ("tcn", "tcn.lr=0", "lr"),
        ("tcn", "tcn.lr=nan", "lr"),
        ("tcn", "tcn.hidden=0", "hidden"),
        ("ppo", "ppo.epochs=0", "epochs"),
        ("ppo", "ppo.minibatch=0", "minibatch"),
        ("ppo", "ppo.lr=inf", "lr"),
        ("ppo", "ppo.hidden=[0,64]", "hidden"),
        ("tcn", "tcn.dilations=[]", "dilations"),
        ("tcn", "channel.n_pulses=0", "n_pulses"),
        ("ppo", "channel.abort_qber=0.6", "abort_qber"),
        ("tcn", "channel.block_seconds=0", "block_seconds"),
        ("tcn", "train.tcn_blocks=0", "tcn_blocks"),
        ("tcn", "train.tcn_scenarios=[]", "tcn_scenarios"),
        ("ppo", "train.ppo_updates=0", "ppo_updates"),
        ("ppo", "train.ppo_blocks=1", "ppo_blocks"),  # an episode that never acts
        ("ppo", "train.ppo_scenarios=[]", "ppo_scenarios"),
    ])
    def test_unrunnable_training_config_runtime_error(self, tmp_path, capsys, what, pair,
                                                      field):
        out = tmp_path / "o"
        assert run(["train", what, "--out", str(out), "--set", pair]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what,pair", [
        ("tcn", 'train.tcn_scenarios=["nominal","bogus"]'),
        ("ppo", 'train.ppo_scenarios=["bogus"]'),
    ])
    def test_unknown_training_scenario_usage_error(self, tmp_path, capsys, what, pair):
        out = tmp_path / "o"
        assert run(["train", what, "--out", str(out), "--set", pair]) == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["tcn", "ppo"])
    def test_corpus_without_a_window_runtime_error(self, tmp_path, capsys, what):
        # windows never run across two scenarios, so each scenario's blocks
        # must hold a 32-block window and the block after it: 3 x 32 blocks
        # are not enough either. train ppo builds no corpus: it takes its
        # forecaster only from --tcn and is refused without one
        for blocks in (10, 32):
            out = tmp_path / f"o{blocks}"
            assert run(["train", what, "--set", f"train.tcn_blocks={blocks}",
                        "--out", str(out)]) == 2
            err = capsys.readouterr().err
            if what == "tcn":
                assert f"train.tcn_blocks {blocks} per scenario" in err
                assert "tcn.window of 32" in err
            else:
                assert "error: the ml controller requires --tcn" in err
            assert not out.exists()

    def test_tcn_divergence_exit_code(self, tmp_path):
        assert run(["train", "tcn", "--seed", "1", "--out", str(tmp_path),
                    "--set", "tcn.lr=1e200"] + FAST_TCN[:-2]
                   + ["--set", "train.tcn_scenarios=[\"nominal\"]"]) == 2

    def test_ppo_divergence_exit_code(self, tmp_path, monkeypatch, capsys, checkpoints):
        from optiqkd import cli

        def diverge(*args, **kwargs):
            raise nn.DivergenceError("non-finite PPO loss")

        monkeypatch.setattr(cli, "train_policy", diverge)
        assert run(["train", "ppo", "--seed", "1", "--tcn", checkpoints[0],
                    "--out", str(tmp_path)]) == 2
        assert "divergence: non-finite PPO loss" in capsys.readouterr().err

    def test_ppo_progress_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        tcn_args = ["train", "tcn", "--seed", "2", "--out", str(out1)] + FAST_TCN
        assert run(tcn_args) == 0
        tcn_ckpt = str(out1 / "tcn_seed2.ckpt")
        for out in (out1, out2):
            assert run(["train", "ppo", "--seed", "2", "--out", str(out),
                        "--tcn", tcn_ckpt] + FAST_PPO) == 0
        assert (out1 / "policy_seed2.ckpt").read_bytes() == \
               (out2 / "policy_seed2.ckpt").read_bytes()
        rows = (out1 / "ppo_progress_seed2.csv").read_text().strip().split("\n")
        assert rows[0] == TRAIN_PROGRESS_HEADER
        assert len(rows) == 3  # header + 2 updates

    def test_ppo_reads_abort_threshold(self, tmp_path):
        tcn_ckpt = tmp_path / "tcn_seed2.ckpt"
        assert run(["train", "tcn", "--seed", "2", "--out", str(tmp_path)] + FAST_TCN) == 0
        progress = []
        for out, extra in (("a", []), ("b", ["--set", "channel.abort_qber=0.005"])):
            assert run(["train", "ppo", "--seed", "2", "--out", str(tmp_path / out),
                        "--tcn", str(tcn_ckpt)] + FAST_PPO + extra) == 0
            progress.append((tmp_path / out / "ppo_progress_seed2.csv").read_text())
        assert progress[0] != progress[1]


class TestEval:
    def test_baselines_metrics_and_determinism(self, tmp_path):
        common = ["eval", "--scenario", "nominal", "--controllers",
                  "static,recalib", "--seeds", "1..2", "--blocks", "210",
                  "--set", "channel.n_pulses=100000"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(common + ["--out", str(out1)]) == 0
        assert run(common + ["--out", str(out2)]) == 0
        m1 = (out1 / "metrics_nominal.csv").read_text()
        m2 = (out2 / "metrics_nominal.csv").read_text()
        assert m1 == m2
        for c in ("static", "recalib"):
            for s in (1, 2):
                p1 = out1 / f"episode_nominal_{c}_seed{s}.csv"
                assert p1.read_bytes() == (out2 / p1.name).read_bytes()
        assert m1.startswith("controller,scenario,metric,value,ci_lo,ci_hi")

    def test_no_block_after_warmup_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["eval", "--controllers", "static,recalib", "--seeds", "1",
                    "--blocks", "50", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--blocks 50" in err and "loop.warmup 100" in err
        assert not out.exists()
        # one controller is not compared, so no block needs to be left
        assert run(["eval", "--controllers", "static", "--seeds", "1", "--blocks", "50",
                    "--set", "channel.n_pulses=100000", "--out", str(out)]) == 0

    def test_short_pre_event_history_usage_error(self, tmp_path, capsys):
        # the splice event at block 45 of 90 has fewer than 50 blocks before it
        out = tmp_path / "o"
        assert run(["eval", "--scenario", "splice-3db", "--controllers", "static,recalib",
                    "--seeds", "1", "--blocks", "90", "--set", "loop.warmup=10",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--blocks 90" in err and "block 45" in err
        assert not out.exists()

    def test_tcn_with_other_features_runtime_error(self, tmp_path, capsys, checkpoints):
        tcn, _ = checkpoints
        arrays, meta = nn.load_checkpoint(tcn)
        nn.save_checkpoint(tcn, arrays, {**meta, "features": ["q", "e", "v", "eta"]})
        assert run(["eval", "--controllers", "static", "--seeds", "1", "--blocks", "5",
                    "--tcn", tcn, "--out", str(tmp_path / "o")]) == 2
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("which,message", [
        ("five-feature tcn", "has features"),
        ("wider policy", f"has obs_dim {OBS_DIM + 2}, not {OBS_DIM}"),
        ("tcn without window", "metadata 'window' is missing"),
        ("tcn window below its receptive field",
         "window (2) must be >= the receptive field (5)"),
        ("three-layer policy", "hidden must be two widths >= 1, got (8, 8, 8)"),
    ])
    def test_incompatible_checkpoint_runtime_error(self, tmp_path, capsys, checkpoints,
                                                   which, message):
        # checkpoints of an older layout (the y0 feature: five features and
        # two more policy inputs), with a size missing or with sizes their
        # config refuses are refused by name
        tcn, policy = checkpoints
        path = policy if "policy" in which else tcn
        arrays, meta = nn.load_checkpoint(path)
        if which == "five-feature tcn":
            widen = {"conv0.kernel": 1, "head.w": 0, "head.b": 0, "norm.mean": 0, "norm.std": 0}
            for name, axis in widen.items():
                arrays[name] = np.insert(arrays[name], len(FEATURES), 1.0, axis=axis)
            meta["features"] = [*FEATURES, "y0"]
        elif which == "wider policy":
            for name in ("actor0.w", "critic0.w"):
                arrays[name] = np.pad(arrays[name], ((0, 0), (0, 2)))
            meta["obs_dim"] = OBS_DIM + 2
        elif which == "tcn without window":
            del meta["window"]
        elif which == "three-layer policy":
            meta["hidden"] = [8, 8, 8]
        else:
            meta["kernel"] = 5
        nn.save_checkpoint(path, arrays, meta)
        out = tmp_path / "o"
        assert run(["eval", "--controllers", "ml,static", "--seeds", "1", "--blocks", "20",
                    "--set", "loop.warmup=10", "--tcn", tcn, "--policy", policy,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {path}" in err and message in err
        assert not list(out.glob("episode_*.csv"))

    @pytest.mark.parametrize("names,flag", [
        (["--controllers", "static,static", "--seeds", "1"], "--controllers"),
        (["--controllers", "static,recalib", "--seeds", "1,1"], "--seeds"),
        (["--controllers", "static", "--seeds", "2,1,2"], "--seeds"),
    ])
    def test_repeated_name_usage_error(self, tmp_path, capsys, names, flag):
        out = tmp_path / "o"
        assert run(["eval", "--blocks", "110", "--out", str(out)] + names) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag} names ")
        assert not out.exists()

    def test_empty_seeds_usage_error(self, tmp_path):
        assert run(["eval", "--seeds", "", "--out", str(tmp_path),
                    "--controllers", "static,recalib"]) == 1

    def test_ml_without_checkpoint_runtime_error(self, tmp_path):
        assert run(["eval", "--controllers", "ml,static", "--seeds", "1..2",
                    "--out", str(tmp_path)]) == 2

    def test_train_tcn_refuses_tcn_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["train", "tcn", "--tcn", str(tmp_path / "nope.ckpt"),
                    "--out", str(out)]) == 1
        assert "--tcn is for train ppo only" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_policy_file_runtime_error(self, tmp_path):
        assert run(["eval", "--controllers", "ml,static", "--seeds", "1",
                    "--policy", str(tmp_path / "nope.ckpt"),
                    "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--seed", "-1"], "--seed"),
    (["train", "tcn", "--seed", "-1"], "--seed"),
    (["train", "tcn", "--seed", str(2**64)], "--seed"),
    (["train", "ppo", "--seed", "-2"], "--seed"),
    (["eval", "--controllers", "static,recalib", "--seeds=-1..2"], "--seeds"),
    (["eval", "--controllers", "static", "--seeds", "3,-4"], "--seeds"),
    (["simulate", "--blocks", "0"], "--blocks"),
    (["simulate", "--blocks", "-3"], "--blocks"),
    (["eval", "--controllers", "static", "--seeds", "1", "--blocks", "0"], "--blocks"),
])
def test_seed_out_of_range_or_no_block_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{flag} must be >= " in err
    assert not out.exists()


def test_parse_seeds():
    assert parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert parse_seeds("3,9,11") == [3, 9, 11]
    with pytest.raises(Exception):
        parse_seeds("")
    for text in ("abc", "1..x", "1,,x"):
        with pytest.raises(UsageError, match="--seeds"):
            parse_seeds(text)
    with pytest.raises(UsageError, match="empty seeds list"):
        parse_seeds("5..1")


def test_no_command_usage_error():
    assert main([]) == 1

