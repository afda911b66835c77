"""Experiment harness: configuration, scenario runs, training, CSV emission.

Commands: ``rates``, ``simulate``, ``train``, ``eval``, ``show-config``.
``simulate`` is a one-job ``eval``: both run their episodes through one
path and write the same episode CSV for the same controller and seed. The
``ml`` controller needs a ``--tcn`` forecaster and a ``--policy``, and
``train ppo`` a ``--tcn`` forecaster.
Exit codes: 0 success, 1 usage error, 2 runtime or divergence error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import config as cfgmod
from . import loop as loopmod
from . import rates as ratesmod
from . import tcn as tcnmod
from .channel import SCENARIOS, UnknownScenarioError, make_scenario
from .controller import PpoConfig, load_policy, save_policy
from .loop import EpisodeLog, forecaster_corpus, run_episode, train_policy
from .nn import DivergenceError
from .tcn import load_tcn, save_tcn, train_forecaster

RATES_CSV_HEADER = "distance_km,q_mu,e_mu,r_pp,r_finite,r_bps"
TRAIN_PROGRESS_HEADER = "update,mean_reward,policy_loss,value_loss,entropy"
PROTOCOLS = tuple(ratesmod.PROTOCOLS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config overlay")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="optiqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", parents=[], help="analytic rate curves over distance")
    _add_common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default="bb84")
    p.add_argument("--dmin", type=float, default=0.0)
    p.add_argument("--dmax", type=float, default=200.0)
    p.add_argument("--dstep", type=float, default=5.0)

    p = sub.add_parser("simulate", help="run one scenario and dump the episode CSV")
    _add_common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default="bb84")
    p.add_argument("--scenario", choices=SCENARIOS, default="nominal")
    p.add_argument("--controller", choices=loopmod.CONTROLLER_KINDS, default="static")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--blocks", type=int, default=200)
    p.add_argument("--tcn", default=None, help="forecaster checkpoint (ml only)")
    p.add_argument("--policy", default=None, help="policy checkpoint (ml only)")

    p = sub.add_parser("train", help="train the forecaster or the controller")
    _add_common(p)
    p.add_argument("model", choices=("tcn", "ppo"))
    p.add_argument("--protocol", choices=PROTOCOLS, default="bb84")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tcn", default=None,
                   help="forecaster checkpoint that drives training (ppo only, and required)")

    p = sub.add_parser("eval", help="closed-loop comparison across controllers/seeds")
    _add_common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default="bb84")
    p.add_argument("--scenario", choices=SCENARIOS, default="noise-sweep")
    p.add_argument("--controllers", default="ml,static",
                   help="comma list from {ml,static,recalib}")
    p.add_argument("--seeds", default="1..5", help="N..M range or comma list")
    p.add_argument("--blocks", type=int, default=600)
    p.add_argument("--tcn", default=None)
    p.add_argument("--policy", default=None)

    p = sub.add_parser("show-config", help="print the full effective configuration")
    _add_common(p)
    return parser


def parse_seeds(text: str) -> List[int]:
    lo, dots, hi = text.partition("..")
    try:
        seeds = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(s) for s in text.split(",") if s.strip()])
    except ValueError:
        raise UsageError(f"--seeds takes N..M or a comma list of integers, got {text!r}") from None
    if not seeds:
        raise UsageError("empty seeds list")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds names a seed twice: {text!r}")
    for seed in seeds:
        _check_seed(seed, "--seeds")
    return seeds


def _check_seed(seed: int, flag: str = "--seed") -> None:
    # each run derives its generator keys from the seed (up to about
    # 4000 * seed), and a Philox key must stay below 2**128
    if not 0 <= seed < 2**64:
        raise UsageError(f"{flag} must be >= 0 and < 2**64, got {seed}")


def _load_cfg(args) -> dict:
    cfg = cfgmod.load_config(args.config)
    cfgmod.apply_overrides(cfg, args.overrides)
    return cfg


def _link_configs(cfg, args) -> tuple:
    """(link, the ``--protocol`` protocol, channel, reward)."""
    link, proto = cfgmod.typed(cfg, "link"), cfgmod.typed(cfg, "protocol", kind=args.protocol)
    return link, proto, cfgmod.typed(cfg, "channel"), cfgmod.typed(cfg, "reward")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_rates(args) -> int:
    if not all(map(math.isfinite, (args.dmin, args.dmax, args.dstep))):
        raise UsageError("--dmin, --dmax and --dstep must be finite")
    if args.dstep <= 0:
        raise UsageError(f"--dstep must be positive, got {args.dstep:g}")
    if args.dmin < 0:
        raise UsageError(f"--dmin must be >= 0, got {args.dmin:g}")
    if args.dmax < args.dmin:
        raise UsageError(f"--dmax {args.dmax:g} is below --dmin {args.dmin:g}")
    cfg = _load_cfg(args)
    link0 = cfgmod.typed(cfg, "link")
    proto = cfgmod.typed(cfg, "protocol", kind=args.protocol)
    out = _outdir(args)
    lines = [RATES_CSV_HEADER]
    # the last step at or below --dmax, with a tolerance for the rounding of
    # the division (0..1 by 0.1 ends at 1)
    n_steps = math.floor((args.dmax - args.dmin) / args.dstep + 1e-9)
    grid = [args.dmin + i * args.dstep for i in range(n_steps + 1)]
    for d in grid:
        q_mu, e_mu, rep = ratesmod.operating_point(replace(link0, distance_km=d), proto)
        lines.append(f"{d:.10g},{q_mu:.10g},{e_mu:.10g},{rep.r_per_pulse:.10g},"
                     f"{rep.r_finite:.10g},{rep.r_bps:.10g}")
    path = out / f"rates_{args.protocol}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(path)
    return 0


def _event_block(args) -> Optional[int]:
    events = make_scenario(args.scenario, args.blocks).events
    return events[0].block_index if events else None


def _run_episodes(args, links: tuple, ppo_cfg: Optional[PpoConfig],
                  controllers: Sequence[str], seeds: Sequence[int],
                  warmup: Optional[int] = None) -> Dict[str, List[EpisodeLog]]:
    """Run each (controller, seed) episode and write its CSV to ``--out``.

    Before any episode runs, the checkpoints are loaded (ml needs ``--tcn``
    and ``--policy``); then runs to be compared after ``warmup`` blocks
    must leave blocks after it and enough history before the event.
    """
    link, proto, channel, reward_cfg = links
    if args.blocks < 1:
        raise UsageError(f"--blocks must be >= 1, got {args.blocks}")
    for flag, what in (("tcn", "forecaster"), ("policy", "policy")):
        path = getattr(args, flag)
        if path is None and "ml" in controllers:
            raise FileNotFoundError(f"the ml controller requires --{flag}")
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"missing {what} checkpoint {path}")
    tcn_model = load_tcn(args.tcn) if args.tcn is not None else None
    if args.policy is not None:  # checked here; each ml run loads its own copy to update
        load_policy(args.policy, ppo_cfg)
    if warmup is not None:
        if args.blocks <= warmup:
            raise UsageError(f"--blocks {args.blocks} leaves no block after "
                             f"loop.warmup {warmup} to compare")
        event = _event_block(args)
        if event is not None and not loopmod.PRE_EVENT_WINDOW <= event < args.blocks:
            raise UsageError(f"--blocks {args.blocks} puts the {args.scenario} event at "
                             f"block {event}, fewer than {loopmod.PRE_EVENT_WINDOW} blocks in")
    runs = {c: [run_episode(link, proto, args.scenario, c, seed=seed, blocks=args.blocks,
                            channel=channel, tcn_model=tcn_model, reward_cfg=reward_cfg,
                            nets=load_policy(args.policy, ppo_cfg) if c == "ml" else None)
                for seed in seeds] for c in controllers}
    out = _outdir(args)
    for c, logs in runs.items():
        for log in logs:
            (out / _episode_name(args, c, log.seed)).write_text(log.csv())
    return runs


def _episode_name(args, controller: str, seed: int) -> str:
    return f"episode_{args.scenario}_{controller}_seed{seed}.csv"


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    cfg = _load_cfg(args)
    links = _link_configs(cfg, args)
    ppo_cfg = cfgmod.typed(cfg, "ppo") if args.policy is not None else None
    _run_episodes(args, links, ppo_cfg, [args.controller], [args.seed])
    print(Path(args.out) / _episode_name(args, args.controller, args.seed))
    return 0


def cmd_train(args) -> int:
    _check_seed(args.seed)
    if args.model == "tcn" and args.tcn is not None:
        raise UsageError("--tcn is for train ppo only; train tcn trains a new forecaster")
    cfg = _load_cfg(args)
    link, proto, channel, reward_cfg = _link_configs(cfg, args)
    # every section is checked before anything is trained or written
    train = cfgmod.typed(cfg, "train")
    tcn_cfg, ppo_cfg = cfgmod.typed(cfg, "tcn"), cfgmod.typed(cfg, "ppo")
    if args.model == "tcn":
        corpus = forecaster_corpus(train, tcn_cfg.window, link, proto, channel, args.seed)
        out = _outdir(args)
        rng = np.random.Generator(np.random.Philox(key=args.seed * 4 + 3))
        model, curve = train_forecaster(corpus, tcn_cfg, rng)
        ckpt = out / f"tcn_seed{args.seed}.ckpt"
        save_tcn(str(ckpt), model)
        loss_csv = out / f"tcn_loss_seed{args.seed}.csv"
        final_mse = tcnmod.dataset_mse(corpus, model)
        loss_csv.write_text("epoch,train_mse\n" + "\n".join(
            f"{i},{mse:.10g}" for i, mse in enumerate(curve))
            + f"\nfinal,{final_mse:.10g}\n")
        print(ckpt)
        print(loss_csv)
        return 0
    # ppo
    if args.tcn is None:
        raise FileNotFoundError("the ml controller requires --tcn")
    tcn_model = load_tcn(args.tcn)
    out = _outdir(args)
    nets, progress = train_policy(link, proto, tcn_model, seed=args.seed, train=train,
                                  ppo_cfg=ppo_cfg, reward_cfg=reward_cfg, channel=channel)
    ckpt = out / f"policy_seed{args.seed}.ckpt"
    save_policy(str(ckpt), nets)
    prog_csv = out / f"ppo_progress_seed{args.seed}.csv"
    prog_csv.write_text(TRAIN_PROGRESS_HEADER + "\n" + "\n".join(
        f"{i},{p['mean_reward']:.10g},{p['policy_loss']:.10g},"
        f"{p['value_loss']:.10g},{p['entropy']:.10g}"
        for i, p in enumerate(progress)) + "\n")
    print(ckpt)
    print(prog_csv)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    links = _link_configs(cfg, args)
    loop_cfg, ppo_cfg = cfgmod.typed(cfg, "loop"), cfgmod.typed(cfg, "ppo")
    controllers = [c.strip() for c in args.controllers.split(",") if c.strip()]
    if not controllers:
        raise UsageError("no controllers given")
    for c in controllers:
        if c not in loopmod.CONTROLLER_KINDS:
            raise UsageError(f"unknown controller {c!r}")
    if len(set(controllers)) < len(controllers):
        raise UsageError(f"--controllers names a controller twice: {args.controllers!r}")
    seeds = parse_seeds(args.seeds)
    if len(controllers) < 2:  # one controller is not compared
        _run_episodes(args, links, ppo_cfg, controllers, seeds)
        return 0
    runs = _run_episodes(args, links, ppo_cfg, controllers, seeds, warmup=loop_cfg.warmup)
    result = loopmod.compare(runs, warmup=loop_cfg.warmup, event_block=_event_block(args),
                             block_seconds=links[2].block_seconds)
    metrics_path = Path(args.out) / f"metrics_{args.scenario}.csv"
    metrics_path.write_text(result.csv())
    print(metrics_path)
    return 0


def cmd_show_config(args) -> int:
    cfg = _load_cfg(args)
    for name in cfgmod.SECTIONS:  # print only what the other commands can run
        cfgmod.typed(cfg, name)
    sys.stdout.write(cfgmod.config_json(cfg))
    return 0


_COMMANDS = {
    "rates": cmd_rates,
    "simulate": cmd_simulate,
    "train": cmd_train,
    "eval": cmd_eval,
    "show-config": cmd_show_config,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, UnknownScenarioError, cfgmod.OverrideError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
