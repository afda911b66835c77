"""End-to-end closed loop: forecaster + controller vs the static baseline.

Trains the forecaster on quiet telemetry, trains the PPO controller on the
stressor sweep, then evaluates both controllers over five seeds and prints
the comparison table the `eval` command would emit.

Takes roughly two to three minutes on a laptop.
"""

import time
from pathlib import Path

import numpy as np

from optiqkd import ChannelConfig, LinkParams, ProtocolConfig
from optiqkd.loop import TrainConfig, compare, forecaster_corpus, run_episode, train_policy
from optiqkd.controller import load_policy, save_policy
from optiqkd.tcn import TcnConfig, train_forecaster

OUT = Path("out")
OUT.mkdir(exist_ok=True)
link, proto = LinkParams(), ProtocolConfig()

t0 = time.time()
cfg = TcnConfig()
# the corpus of `optiqkd train tcn --seed 1`: windows sliced per scenario, so none runs across two
corpus = forecaster_corpus(TrainConfig(), cfg.window, link, proto, ChannelConfig(), seed=1)
tcn_model, _ = train_forecaster(corpus, cfg, np.random.Generator(np.random.Philox(key=15)))
print(f"forecaster trained in {time.time() - t0:.0f}s")

t0 = time.time()
nets, progress = train_policy(link, proto, tcn_model, seed=0,
                             train=TrainConfig(ppo_updates=300))
print(f"controller trained in {time.time() - t0:.0f}s "
      f"(reward {progress[0]['mean_reward']:.2f} -> {progress[-1]['mean_reward']:.2f})")
ckpt = OUT / "demo_policy.ckpt"
save_policy(str(ckpt), nets)

runs = {"ml": [], "static": []}
for seed in range(1, 6):
    runs["ml"].append(run_episode(link, proto, "noise-sweep", "ml", seed=seed,
                                  blocks=600, tcn_model=tcn_model,
                                  nets=load_policy(str(ckpt))))
    runs["static"].append(run_episode(link, proto, "noise-sweep", "static",
                                      seed=seed, blocks=600))

result = compare(runs, warmup=100)
(OUT / "demo_metrics_noise-sweep.csv").write_text(result.csv())
print(f"\nwrote {OUT / 'demo_metrics_noise-sweep.csv'}")
ml, st = result.metrics["ml"], result.metrics["static"]
print(f"median SKR   ml {ml.median_skr_bps:.3e} bps | static {st.median_skr_bps:.3e} bps "
      f"({ml.median_skr_bps / st.median_skr_bps:.1f}x)")
print(f"median QBER  ml {ml.median_qber:.4f}      | static {st.median_qber:.4f} "
      f"({ml.median_qber / st.median_qber:.2f}x)")
for name, metric, value, lo, hi in result.improvements:
    print(f"{metric}: {value:.1f}  CI [{lo:.1f}, {hi:.1f}]")
