"""Fixed-seed outputs pinned by hash.

For each protocol ``rates`` writes its rate curve, a tiny ``train tcn``
and ``train ppo`` write the two checkpoints and the loss and progress
CSVs, a second tiny ``train tcn`` (seed 2) trains on the windows of two
scenarios, and one ``eval ml,static,recalib`` (one seed, 300 blocks) per
scenario in :data:`SCENARIOS` writes the episode and metrics CSVs, and
``simulate`` writes the episodes of :data:`SIMULATE`, all through
``cli.main`` in this process. The scenarios cover the noise sweep,
the loss step and the damping drift. ``show-config`` under the tiny
overrides is pinned by its standard output. ``golden/manifest.json`` holds the sha256
of each file and the numpy and BLAS builds it was made with, because ML
bytes depend on the BLAS summation order. A change that moves outputs on
purpose rewrites the manifest with ``python tests/golden/rewrite_manifest.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict

import numpy as np

from optiqkd.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
PROTOCOLS = ("bb84", "e91", "cow")
SCENARIOS = ("noise-sweep", "splice-3db", "sine-drift")
TINY = [
    "--set", "tcn.dilations=1,2", "--set", "tcn.hidden=6",
    "--set", "tcn.window=8", "--set", "tcn.epochs=3",
    "--set", "train.tcn_blocks=60", "--set", "train.tcn_scenarios=[\"nominal\"]",
    "--set", "ppo.rollout=32", "--set", "ppo.minibatch=16",
    "--set", "train.ppo_updates=4", "--set", "train.ppo_blocks=40",
]
# simulate runs (controller, channel.n_pulses) on sine-drift with a low abort
# threshold: the few-pulse blocks sift nothing, the larger ones abort, and
# recalib's aborts fall right before held blocks
SIMULATE = (("static", 300), ("static", 2000), ("ml", 2000), ("recalib", 2000))


def build_info() -> Dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas_build = "unknown"
    return {"numpy": np.__version__, "blas": blas_build}


def run(argv) -> str:
    """``optiqkd argv`` in this process; its standard output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"optiqkd {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_set(out: Path) -> Dict[str, str]:
    """Run the fixed-seed set under ``out``; the sha256 of each checkpoint
    and CSV it writes, keyed ``protocol/file``, and of the ``show-config``
    output."""
    hashes = {"show-config.json": sha256(run(["show-config"] + TINY).encode())}
    for proto in PROTOCOLS:
        d = out / proto
        tcn, policy = str(d / "tcn_seed1.ckpt"), str(d / "policy_seed1.ckpt")
        commands = [
            ["rates", "--out", str(d)],
            ["train", "tcn", "--seed", "1", "--out", str(d)],
            ["train", "ppo", "--seed", "1", "--tcn", tcn, "--out", str(d)],
        ] + [["eval", "--scenario", scen, "--controllers", "ml,static,recalib", "--seeds", "1",
              "--blocks", "300", "--tcn", tcn, "--policy", policy, "--out", str(d / "eval")]
             for scen in SCENARIOS]
        for argv in commands:
            run(argv + ["--protocol", proto] + TINY)
        run(["train", "tcn", "--seed", "2", "--out", str(d), "--protocol", proto] + TINY
            + ["--set", "train.tcn_scenarios=[\"nominal\",\"sine-drift\"]"])
        for path in sorted([*d.rglob("*.csv"), *d.glob("*.ckpt")]):
            hashes[f"{proto}/{path.name}"] = sha256(path.read_bytes())
        for controller, n_pulses in SIMULATE:
            sim = out / "simulate" / proto / f"{controller}_n{n_pulses}"
            ckpts = ["--tcn", tcn, "--policy", policy] if controller == "ml" else []
            run(["simulate", "--protocol", proto, "--scenario", "sine-drift", "--blocks", "100",
                 "--seed", "3", "--controller", controller, "--out", str(sim)] + ckpts + TINY
                + ["--set", f"channel.n_pulses={n_pulses}", "--set", "channel.abort_qber=0.05"])
            for path in sorted(sim.glob("*.csv")):
                hashes[f"{proto}/simulate/{sim.name}/{path.name}"] = sha256(path.read_bytes())
    return hashes


def test_fixed_seed_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    got, want = run_set(tmp_path), manifest["sha256"]
    changed = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    assert not changed, (
        f"{len(changed)} fixed-seed outputs differ from {MANIFEST.name}: {', '.join(changed)}; "
        f"manifest made with {manifest['build']}, this run with {build_info()}")
