"""One benchmark run: set-up, a closed loop of CLI ops, checks, metrics.

One client drives ``optiqkd.cli.main`` in this process; the next op starts
when the previous one has returned. Ops come in pairs that share a seed,
so every pair also checks that repeats give identical CSVs. In the traced
run one op of each pair is traced and the other is not, which gives the
tracing overhead from ops with identical inputs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from optiqkd import cli

import checks
import kernels
import workloads
from speed import SpeedSampler
from tracer import FUNCTIONS, MODULES, EpisodeTimer, Tracer

SETUP_REPEATS = 3
perf = time.perf_counter


class SetupError(RuntimeError):
    """Set-up failed its checks; no op can run."""


def env_record() -> Dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k, "unset") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPTIQKD_THREADS")},
    }


def run_cli(argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # an op that crashes counts as failed; the run goes on
            traceback.print_exc()
            return -1


def check(op: Dict, rc: int) -> List[str]:
    try:
        return checks.check_op(op, Path(op["out"]), rc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"check raised {exc!r}"]


def setup(seed: int, work: Path, size: Dict, sampler: SpeedSampler,
          tracer: Optional[Tracer]):
    """Run set-up SETUP_REPEATS times; returns (wall, scaled) seconds per
    repeat and the checkpoints of the last one."""
    times, digests = [], []
    for r in range(SETUP_REPEATS):
        ops = workloads.setup_ops(seed, str(work / f"setup{r}"), size)
        gc.collect()
        with (tracer.installed() if tracer else contextlib.nullcontext()), \
                (tracer.span("bench.setup") if tracer else contextlib.nullcontext()), \
                sampler.running(tracer):
            t0 = perf()
            rcs = [run_cli(op["argv"]) for op in ops]
            t1 = perf()
        times.append(sampler.measure(t0, t1))
        for op, rc in zip(ops, rcs):
            problems = check(op, rc)
            if problems:
                raise SetupError(f"set-up {' '.join(op['argv'][:2])}: {problems[:5]}")
        digests.append(tuple(checks.csv_digest(Path(op["out"])) for op in ops))
    if len(set(digests)) != 1:
        raise SetupError("repeated set-ups with one seed gave different CSVs")
    return times, {"tcn": ops[0]["ckpt"], "policy": ops[1]["ckpt"]}


def run_op(op: Dict, sampler: SpeedSampler, tracer: Optional[Tracer]) -> Dict:
    """One CLI op, checked. Times are (wall, scaled) pairs; ``blocks`` holds
    (controller, blocks, wall, scaled) per episode, and for ``train tcn``
    the corpus build as controller ``corpus``."""
    timer = EpisodeTimer()
    gc.collect()
    with timer.installed(), (tracer.installed() if tracer else contextlib.nullcontext()), \
            (tracer.span("bench.op") if tracer else contextlib.nullcontext()), \
            sampler.running(tracer):
        t0 = perf()
        rc = run_cli(op["argv"])
        t1 = perf()
    problems = check(op, rc)
    out = Path(op["out"])
    digest = checks.csv_digest(out) if not problems else None
    shutil.rmtree(out, ignore_errors=True)
    blocks = [(c, n, *sampler.measure(e0, e1)) for c, n, e0, e1 in timer.episodes]
    if timer.train_start is not None:
        blocks.append(("corpus", op["blocks"], *sampler.measure(t0, timer.train_start)))
    return {"op": op, "time": sampler.measure(t0, t1), "blocks": blocks,
            "problems": problems, "digest": digest, "traced": tracer is not None}


def op_seed(seed: int, pair: int) -> int:
    return seed * 1000 + pair + 1


def op_loop(workload: str, seed: int, seconds: float, work: Path, ckpts: Dict,
            size: Dict, sampler: SpeedSampler, tracer: Optional[Tracer]) -> List[Dict]:
    records: List[Dict] = []
    pair_times: List[float] = []
    t_start = perf()
    k = 0
    while True:
        s = op_seed(seed, k)
        if tracer is None:
            order = (False, False)
        else:  # alternate which op of the pair is traced
            order = (False, True) if k % 2 == 0 else (True, False)
        pair = []
        for i, traced in enumerate(order):
            op = workloads.workload_op(workload, s, str(work / f"op{k}-{i}"), ckpts, size)
            pair.append(run_op(op, sampler, tracer if traced else None))
            wall, scaled = pair[-1]["time"]
            print(f"[perfbench] {workload} op seed={s} traced={int(traced)} wall={wall:.3f}s "
                  f"scaled={scaled:.3f}s {pair[-1]['problems'][:3] or 'ok'}", file=sys.stderr)
        a, b = pair
        if a["digest"] is not None and b["digest"] is not None and a["digest"] != b["digest"]:
            b["problems"].append("CSVs differ from the op repeated with the same seed")
        records += pair
        pair_times.append(a["time"][0] + b["time"][0])
        k += 1
        if perf() - t_start + statistics.median(pair_times) > seconds:
            return records


def summary(samples: List[float]) -> Dict:
    """Median with the sample count; a percentile only where at least ten
    samples lie beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = float(np.percentile(samples, q))
    return out


def block_ms(records: List[Dict], controllers, col: int) -> List[float]:
    """Per-block milliseconds of the matching episodes; col 2 = wall, 3 = scaled."""
    return [1e3 * b[col] / b[1] for r in records for b in r["blocks"] if b[0] in controllers]


def end_to_end(workload: str, records: List[Dict], setup_times: List[Tuple[float, float]]):
    """End-to-end metrics in seconds at the reference machine speed, and
    the same under per-command names (train_tcn_s, ml_block_ms, ...), with
    wall times beside them."""
    op_name, block_name, kinds = {
        "tcn-train": ("train_tcn_s", "corpus_block_ms", ("corpus",)),
        "ppo-train": ("train_ppo_s", "ml_block_ms", ("ml",)),
        "eval-long": ("eval_s", "ml_block_ms", ("ml",)),
    }[workload]
    named, wall = {}, {}
    for col, out in ((1, named), (0, wall)):
        out[op_name] = summary([r["time"][col] for r in records])
        out[block_name] = summary(block_ms(records, kinds, col + 2))
        if workload == "eval-long":
            out["baseline_block_ms"] = summary(block_ms(records, ("static", "recalib"), col + 2))
        out["setup_s"] = summary([t[col] for t in setup_times])
    named["wall"] = wall
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s": (named[op_name]["median"], "s"),
        "block_ms": (named[block_name]["median"], "ms"),
        "setup_s": (named["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, named


def per_layer(tracer: Tracer, records: List[Dict], kernel_times: Dict):
    metrics = {}
    stats = tracer.function_stats()
    for label in FUNCTIONS:
        st = stats[label]
        metrics[f"{label}.calls"] = (st["calls"], "count")
        metrics[f"{label}.self_s"] = (st["self_s"], "s")
        metrics[f"{label}.p50_us"] = (st["p50_us"], "us")
        metrics[f"{label}.p99_us"] = (st["p99_us"], "us")

    ev = tracer.events

    def ratio(num: float, label: str) -> float:
        calls = stats[label]["calls"]
        return num / calls if calls else 0.0

    metrics["tcn.forecast_fallback_ratio"] = (
        ratio(ev["forecast_fallback"], "tcn.Forecaster.forecast"), "ratio")
    metrics["controller.act_fallback_ratio"] = (
        ratio(ev["act_fallback"], "controller.act"), "ratio")
    metrics["controller.clamp_ratio"] = (ratio(ev["clamp"], "controller.apply_action"), "ratio")
    metrics["channel.abort_ratio"] = (ratio(ev["abort"], "channel.Simulator.step"), "ratio")
    metrics["rates.decoy_infeasible_ratio"] = (
        ratio(ev["rates.decoy_bounds:raised:BoundInfeasibleError"], "rates.decoy_bounds"), "ratio")

    gaps, growth = tracer.block_intervals(workloads.WARMUP_BLOCKS)
    metrics["loop.block_interval_p50_us"] = (float(np.percentile(gaps, 50)) * 1e6, "us")
    metrics["loop.block_interval_p99_us"] = (float(np.percentile(gaps, 99)) * 1e6, "us")
    metrics["loop.block_interval_growth"] = (growth, "ratio")

    op_shares = tracer.self_shares("bench.op")
    for module in MODULES:
        share = sum(v for k, v in op_shares.items() if k.split(".")[0] == module)
        metrics[f"{module}.op_share"] = (share, "ratio")
    metrics["untraced.op_share"] = (op_shares.get("bench.op", 0.0), "ratio")

    for name, k in kernel_times.items():
        metrics[f"kernel.{name}_us"] = (k["us"], "us")

    # op times at the reference speed, so a change of machine speed between
    # the two ops of a pair does not read as tracing cost
    untraced = {r["op"]["seed"]: r["time"][1] for r in records if not r["traced"]}
    diffs = [(r["time"][1] - untraced[r["op"]["seed"]], untraced[r["op"]["seed"]])
             for r in records if r["traced"]]
    metrics["trace.overhead_s"] = (statistics.median(d for d, _ in diffs), "s")
    metrics["trace.overhead_pct"] = (statistics.median(100 * d / u for d, u in diffs), "%")

    attribution = {
        "op_self_shares": _top(op_shares),
        "ml_episode_self_shares": _top(tracer.ml_episode_self_shares()),
        "thin_p99": [k for k in FUNCTIONS if stats[k]["calls"] < 1000],
    }
    return metrics, attribution


def _top(shares: Dict[str, float], n: int = 8) -> Dict[str, float]:
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])[:n]}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, size_name: str):
    size = workloads.SIZES[size_name]
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "size": size_name, "env": env_record(), "client": "closed loop, 1 client"}
    try:
        kernel_times = kernels.run_kernels(seed) if trace else {}
        tracer = Tracer() if trace else None
        sampler = SpeedSampler()
        setup_times, ckpts = setup(seed, work, size, sampler, tracer)
        records = op_loop(workload, seed, seconds, work, ckpts, size, sampler, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    info["ops"] = {"attempted": len(records), "failed": failed,
                   "problems": [p for r in records for p in r["problems"]][:20]}
    if trace:
        metrics, info["attribution"] = per_layer(tracer, records, kernel_times)
        info["kernels_computed"] = {k: {"flops": v["flops"], "bytes": v["bytes"]}
                                    for k, v in kernel_times.items()}
        spans = root / ".perfbench_out" / f"spans-{workload}-seed{seed}.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(root))
    else:
        metrics, info["named"] = end_to_end(workload, records, setup_times)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result
