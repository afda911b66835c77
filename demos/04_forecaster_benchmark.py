"""Train the dilated-causal forecaster and race it against persistence.

The sine-drift scenario has a slow environmental driver that moves both
the depolarization and the loss, so every telemetry feature carries
predictable structure. Persistence (repeat the last block) is the
baseline any useful forecaster has to beat.
"""

import numpy as np

from optiqkd import ControlState, LinkParams, ProtocolConfig, Simulator, make_scenario
from optiqkd.tcn import (FEATURES, TcnConfig, dataset_mse, make_dataset, persistence_mse,
                         telemetry_features, train_forecaster, tcn_forward)

link, proto = LinkParams(), ProtocolConfig()
ctrl = ControlState()

sim = Simulator(link, proto, make_scenario("sine-drift", 500), seed=1)
features = np.array([telemetry_features(sim.step(ctrl)) for _ in range(500)])

cfg = TcnConfig()
print(f"receptive field: {cfg.receptive_field} blocks (window {cfg.window})")
dataset = make_dataset(features, cfg.window)
model, curve = train_forecaster(dataset, cfg, np.random.default_rng(0))

trained = dataset_mse(dataset, model)
baseline = persistence_mse(dataset, model.normalizer)
print(f"loss curve: {curve[0]:.3f} -> {curve[-1]:.4f} over {len(curve)} epochs")
print(f"trained MSE      {trained:.5f}")
print(f"persistence MSE  {baseline:.5f}")
print(f"ratio            {trained / baseline:.3f}  (the forecaster wins below 1.0)")

normalizer = model.normalizer
z = normalizer.normalize(features[40:cfg.window + 40])
pred_next = normalizer.denormalize(tcn_forward(z, model))
print("\none-step forecast vs next observation:")
for name, pred, obs in zip(FEATURES, pred_next, features[cfg.window + 40]):
    print(f"  {name:>5}: {pred:.5f} vs {obs:.5f}")
