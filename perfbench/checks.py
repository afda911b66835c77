"""Output checks for one CLI op. Each returns a list of problems; an op with
any problem counts as failed."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Sequence

from optiqkd import cli, controller, loop
from optiqkd.controller import load_policy
from optiqkd.tcn import load_tcn

TCN_LOSS_HEADER = "epoch,train_mse"
REL_TOL = 1e-9  # CSVs print 10 significant digits; pi prints above math.pi

BOXES = {
    "mu_s": controller.SAFE_MU_S,
    "mu_w": controller.SAFE_MU_W,
    "p_z": controller.SAFE_PZ,
    "theta_c": controller.SAFE_THETA_C,
    "phi_c": controller.SAFE_PHI_C,
}


def _inside(x: float, box) -> bool:
    lo, hi = box
    slack = REL_TOL * max(abs(lo), abs(hi))
    return lo - slack <= x <= hi + slack


def _table(path: Path, header: str, problems: List[str]) -> List[List[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[0] if lines else ''!r} != {header!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _finite(values: Sequence[str]) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def episode_csv(path: Path, blocks: int, problems: List[str]) -> None:
    rows = _table(path, loop.EPISODE_CSV_HEADER, problems)
    col = {name: i for i, name in enumerate(loop.EPISODE_CSV_HEADER.split(","))}
    if len(rows) != blocks:
        problems.append(f"{path.name}: {len(rows)} rows, expected {blocks}")
    for r in rows:
        skr, e_mu = float(r[col["skr_bps"]]), float(r[col["e_mu_hat"]])
        knobs = {k: float(r[col[k]]) for k in BOXES}
        if not (math.isfinite(skr) and skr >= 0.0):
            problems.append(f"{path.name} block {r[0]}: skr_bps {skr}")
        if not 0.0 <= e_mu <= 1.0:
            problems.append(f"{path.name} block {r[0]}: e_mu_hat {e_mu}")
        bad = [k for k, box in BOXES.items() if not _inside(knobs[k], box)]
        if knobs["mu_w"] > knobs["mu_s"] - controller.SAFE_MU_GAP + REL_TOL:
            bad.append("mu_gap")
        if bad:
            problems.append(f"{path.name} block {r[0]}: knobs outside safe boxes {bad}")
        if len(problems) > 20:
            return


def tcn_outputs(out: Path, seed: int, epochs: int, problems: List[str]) -> None:
    rows = _table(out / f"tcn_loss_seed{seed}.csv", TCN_LOSS_HEADER, problems)
    if not rows:
        return
    if len(rows) != 2 * epochs + 1 or rows[-1][0] != "final":
        problems.append(f"tcn loss: {len(rows)} rows, expected {2 * epochs} epochs + final")
    values = [r[1] for r in rows]
    if not _finite(values):
        problems.append("tcn loss: non-finite value")
    elif float(values[-1]) > float(values[0]):
        problems.append(f"tcn loss: final MSE {values[-1]} above first-epoch MSE {values[0]}")
    model = load_tcn(str(out / f"tcn_seed{seed}.ckpt"))
    if not all(_finite(p.data.ravel()) for p in model.params()):
        problems.append("tcn checkpoint: non-finite parameter")


def ppo_outputs(out: Path, seed: int, updates: int, problems: List[str]) -> None:
    rows = _table(out / f"ppo_progress_seed{seed}.csv", cli.TRAIN_PROGRESS_HEADER, problems)
    if len(rows) != updates:
        problems.append(f"ppo progress: {len(rows)} rows, expected {updates}")
    if not all(_finite(r) for r in rows):
        problems.append("ppo progress: non-finite value")
    nets = load_policy(str(out / f"policy_seed{seed}.ckpt"))
    if not all(_finite(p.data.ravel()) for p in nets.actor_params() + nets.critic_params()):
        problems.append("policy checkpoint: non-finite parameter")


def eval_outputs(out: Path, scenario: str, controllers: Sequence[str],
                 seeds: Sequence[int], blocks: int, problems: List[str]) -> None:
    for c in controllers:
        for s in seeds:
            episode_csv(out / f"episode_{scenario}_{c}_seed{s}.csv", blocks, problems)
    if len(controllers) >= 2:
        rows = _table(out / f"metrics_{scenario}.csv", loop.METRICS_CSV_HEADER, problems)
        if not rows:
            problems.append("metrics csv: no rows")


def file_set(out: Path, expected: Sequence[str], problems: List[str]) -> None:
    found = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if found != sorted(expected):
        problems.append(f"output files {found}, expected {sorted(expected)}")


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.glob("*.csv")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def check_op(op: Dict, out: Path, rc: int) -> List[str]:
    """Run every check that applies to ``op`` (see workloads.Op)."""
    problems: List[str] = []
    if rc != 0:
        return [f"exit code {rc}"]
    file_set(out, op["files"], problems)
    if problems:
        return problems
    kind = op["kind"]
    if kind == "tcn":
        tcn_outputs(out, op["seed"], op["epochs"], problems)
    elif kind == "ppo":
        ppo_outputs(out, op["seed"], op["updates"], problems)
    else:
        eval_outputs(out, op["scenario"], op["controllers"], [op["seed"]],
                     op["blocks"], problems)
    return problems
