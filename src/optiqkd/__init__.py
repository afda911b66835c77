"""Closed-loop QKD workbench: analytic key rates, a stochastic fiber-link
simulator, a dilated-causal-convolution forecaster, and a PPO controller."""

from .rates import (PROTOCOLS, Bb84Config, BoundInfeasibleError, CowConfig,
                    DecoyBounds, E91Config, FiniteKeyConfig, KeyRateReport,
                    LinkParams, ProtocolConfig, bb84_key_rate, bb84_model_gains,
                    bb84_sifted_key_rate, binary_entropy, cow_key_rate,
                    cow_visibility, decoy_bounds, e91_key_rate, e91_quantities,
                    finite_key_penalty, finite_key_rate, operating_point,
                    transmittance, wcp_gain)
from .channel import (ChannelConfig, ControlState, LinkSeries, NoiseSchedule, ScheduleEvent,
                      Simulator, Telemetry, UnknownScenarioError, effective_link,
                      make_scenario, wilson_interval)
from .tcn import (Forecaster, Normalizer, TcnConfig, TcnModel, load_tcn,
                  make_dataset, save_tcn, tcn_forward, tcn_train, train_forecaster)
from .controller import (Action, ActorCritic, PpoConfig, RewardConfig,
                         RolloutBuffer, act, apply_action,
                         load_policy, observe, ppo_update, reward, save_policy)
from .loop import (ComparisonResult, EpisodeLog, LoopConfig, RunMetrics, TrainConfig,
                   adaptation_time, compare, forecaster_corpus, nominal_skr_ref, run_episode,
                   train_policy)

__version__ = "0.1.0"
