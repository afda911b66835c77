"""The benchmark's workloads: which CLI command one op runs, at what size.

Every op is one ``optiqkd`` command run in-process through ``cli.main``.
Set-up is the same for every workload: it trains a small forecaster and a
small policy with the repo's own ``train tcn`` and ``train ppo`` and runs a
short ``eval`` of all three controllers on them. ``ppo-train`` and
``eval-long`` ops use those checkpoints, so their ML episodes run real,
seeded models; on ``tcn-train`` set-up is the warm-up, and in the traced
run it makes every traced function run on every workload.
"""

from __future__ import annotations

from typing import Dict, List

SCENARIO = "noise-sweep"
CONTROLLERS = ("ml", "static", "recalib")
TCN_SCENARIOS = 3  # train.tcn_scenarios in the default config
WARMUP_BLOCKS = 100  # loop.warmup in the default config

WORKLOADS = ("tcn-train", "ppo-train", "eval-long")

# "full" is what BENCHMARK.json runs; "tiny" is for the smoke test.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "tcn_epochs": 3, "tcn_blocks": 500,      # train tcn op
        "ppo_updates": 12, "ppo_blocks": 600,    # train ppo op
        "eval_blocks": 3000,                     # eval op
        "setup_tcn_epochs": 2, "setup_tcn_blocks": 300,
        "setup_ppo_updates": 2, "setup_eval_blocks": 200,
    },
    "tiny": {
        "tcn_epochs": 1, "tcn_blocks": 100,
        "ppo_updates": 1, "ppo_blocks": 300,
        "eval_blocks": 300,
        "setup_tcn_epochs": 1, "setup_tcn_blocks": 100,
        "setup_ppo_updates": 1, "setup_eval_blocks": 200,
    },
}


def train_tcn(seed: int, out: str, epochs: int, blocks: int) -> Dict:
    return {
        "kind": "tcn", "seed": seed, "out": out, "epochs": epochs,
        "blocks": TCN_SCENARIOS * blocks,
        "argv": ["train", "tcn", "--seed", str(seed), "--out", out,
                 "--set", f"tcn.epochs={epochs}", "--set", f"train.tcn_blocks={blocks}"],
        "files": [f"tcn_seed{seed}.ckpt", f"tcn_loss_seed{seed}.csv"],
        "ckpt": f"{out}/tcn_seed{seed}.ckpt",
    }


def train_ppo(seed: int, out: str, tcn_ckpt: str, updates: int, blocks: int) -> Dict:
    return {
        "kind": "ppo", "seed": seed, "out": out, "updates": updates,
        "argv": ["train", "ppo", "--seed", str(seed), "--out", out, "--tcn", tcn_ckpt,
                 "--set", f"train.ppo_updates={updates}",
                 "--set", f"train.ppo_blocks={blocks}"],
        "files": [f"policy_seed{seed}.ckpt", f"ppo_progress_seed{seed}.csv"],
        "ckpt": f"{out}/policy_seed{seed}.ckpt",
    }


def evaluate(seed: int, out: str, tcn_ckpt: str, policy_ckpt: str, blocks: int) -> Dict:
    return {
        "kind": "eval", "seed": seed, "out": out, "blocks": blocks, "scenario": SCENARIO,
        "controllers": CONTROLLERS,
        "argv": ["eval", "--scenario", SCENARIO, "--controllers", ",".join(CONTROLLERS),
                 "--seeds", str(seed), "--blocks", str(blocks),
                 "--tcn", tcn_ckpt, "--policy", policy_ckpt, "--out", out],
        "files": [f"episode_{SCENARIO}_{c}_seed{seed}.csv" for c in CONTROLLERS]
                 + [f"metrics_{SCENARIO}.csv"],
    }


def setup_ops(seed: int, out: str, size: Dict[str, int]) -> List[Dict]:
    """The three set-up commands; each reads the checkpoints made before it."""
    tcn = train_tcn(seed, f"{out}/tcn", size["setup_tcn_epochs"], size["setup_tcn_blocks"])
    ppo = train_ppo(seed, f"{out}/ppo", tcn["ckpt"], size["setup_ppo_updates"],
                    size["ppo_blocks"])
    ev = evaluate(seed, f"{out}/eval", tcn["ckpt"], ppo["ckpt"], size["setup_eval_blocks"])
    return [tcn, ppo, ev]


def workload_op(workload: str, seed: int, out: str, ckpts: Dict[str, str],
                size: Dict[str, int]) -> Dict:
    if workload == "tcn-train":
        return train_tcn(seed, out, size["tcn_epochs"], size["tcn_blocks"])
    if workload == "ppo-train":
        return train_ppo(seed, out, ckpts["tcn"], size["ppo_updates"], size["ppo_blocks"])
    if workload == "eval-long":
        return evaluate(seed, out, ckpts["tcn"], ckpts["policy"], size["eval_blocks"])
    raise ValueError(f"unknown workload {workload!r}")
