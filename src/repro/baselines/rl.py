"""RL sharding baselines: AutoShard and DreamShard (Appendix E.2).

Both prior works cast table-wise sharding as an MDP solved with policy
gradients over a *learned* cost model:

- **AutoShard** (Zha et al., 2022a) balances computation only; its
  reward is the degree of balance, ``min_d cost_d / max_d cost_d``.
- **DreamShard** (Zha et al., 2022b) extends the cost model to
  communication and optimizes the overall embedding cost inside an
  "estimated MDP" (all rewards come from cost-model predictions, never
  real hardware), so it typically beats AutoShard.

This reproduction keeps their essential properties that Table 1 exposes:

- **table-wise only** — no column-wise sharding, so a single oversized
  table makes the whole task infeasible (the "-" entries at large max
  dimensions);
- **stochastic policies** — REINFORCE with a moving-average baseline;
  run-to-run variance is real and some seeds land on poor plans
  (Section 4.1's observation that RL "fails even when the dimension is
  small" on some runs);
- **per-task optimization cost** — every task pays an episode budget,
  unlike NeuroShard's train-once search.

Both use a pre-trained cost-model bundle as *their own* learned cost
model, mirroring how the original systems train neural cost estimators
from the same micro-benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import assignment_to_plan
from repro.config import rng_from_seed
from repro.core.cache import CostCache
from repro.core.plan import ShardingPlan
from repro.core.simulator import NeuroShardSimulator
from repro.costmodel.pretrain import PretrainedCostModels
from repro.data.table import TableConfig
from repro.data.tasks import ShardingTask
from repro.hardware.memory import MemoryModel
from repro.nn import Adam, Sequential

__all__ = ["AutoShardSharder", "DreamShardSharder"]

#: Per-device state features fed to the policy alongside table features.
_DEVICE_FEATURES = 3


class _ReinforceSharder:
    """Shared REINFORCE machinery for the two RL baselines.

    Subclasses define :meth:`_objective`, the (to-be-minimized) scalar a
    finished episode is scored with; the reward is its negation.

    Args:
        models: the baseline's learned cost models.
        episodes: training episodes per task.
        lr: policy learning rate.
        hidden: policy MLP hidden sizes.
        seed: RNG seed (sampling and initialization).
    """

    name = "RL"

    def __init__(
        self,
        models: PretrainedCostModels,
        episodes: int = 60,
        lr: float = 5e-3,
        hidden: tuple[int, ...] = (64, 32),
        seed: int = 0,
    ) -> None:
        if episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {episodes}")
        self.models = models
        self.episodes = episodes
        self.lr = lr
        self.hidden = hidden
        self._rng = rng_from_seed(seed)

    # ------------------------------------------------------------------
    # objective (subclass hook)
    # ------------------------------------------------------------------

    def _objective(
        self,
        simulator: NeuroShardSimulator,
        per_device: list[list[TableConfig]],
    ) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------

    def _state(
        self,
        table_features: np.ndarray,
        device_costs: list[float],
        device_dims: list[int],
        device_bytes: list[int],
        memory_bytes: int,
        total_dim: int,
    ) -> np.ndarray:
        """Policy input: table features ++ per-device summaries."""
        dev = []
        for d in range(len(device_costs)):
            dev.extend(
                (
                    device_costs[d] / 10.0,
                    device_dims[d] / max(total_dim, 1),
                    device_bytes[d] / memory_bytes,
                )
            )
        return np.concatenate([table_features, np.array(dev)])

    def shard(self, task: ShardingTask) -> ShardingPlan | None:
        if task.num_devices != self.models.num_devices:
            raise ValueError(
                f"task has {task.num_devices} devices but the cost models "
                f"were trained for {self.models.num_devices}"
            )
        memory = MemoryModel(task.memory_bytes)
        simulator = NeuroShardSimulator(self.models, CostCache())
        featurizer = self.models.featurizer
        tables = list(task.tables)
        num_devices = task.num_devices
        total_dim = sum(t.dim for t in tables)

        # Tables enter the MDP in descending predicted-cost order, the
        # same sorting the greedy methods use.
        singles = simulator.single_table_costs(tables)
        order = list(np.argsort(-singles, kind="stable"))
        feats = [featurizer.features(t) for t in tables]

        input_dim = featurizer.num_features + _DEVICE_FEATURES * num_devices
        policy = Sequential.mlp(
            [input_dim, *self.hidden, num_devices], rng=self._rng, name="policy"
        )
        optimizer = Adam(policy.parameters(), lr=self.lr)

        best_assignment: tuple[int, ...] | None = None
        best_objective = np.inf
        reward_baseline = 0.0

        # Both original systems bootstrap from a learned cost model
        # rather than a blank policy (AutoShard's MDP states *are* cost
        # predictions; DreamShard rolls out inside an estimated MDP), so
        # pure from-scratch REINFORCE would caricature them.  Episodes
        # alternate between cost-model-guided rollouts (episode 0
        # deterministic greedy, later even episodes noisy greedy — no
        # policy update) and on-policy sampling episodes that train the
        # policy.  The best episode under the method's own objective
        # wins, which is where AutoShard (compute balance) and DreamShard
        # (full embedding cost) genuinely differ.
        for episode in range(self.episodes):
            greedy_rollout = episode % 2 == 0
            greedy_temperature = 0.0 if episode == 0 else 0.15
            device_tables: list[list[TableConfig]] = [
                [] for _ in range(num_devices)
            ]
            device_costs = [0.0] * num_devices
            device_dims = [0] * num_devices
            device_bytes = [0] * num_devices
            assignment = [0] * len(tables)
            steps: list[tuple[np.ndarray, np.ndarray, int, np.ndarray]] = []
            failed = False

            for ti in order:
                table = tables[ti]
                t_bytes = memory.table_bytes(table)
                mask = np.array(
                    [
                        device_bytes[d] + t_bytes <= memory.memory_bytes
                        for d in range(num_devices)
                    ]
                )
                if not mask.any():
                    failed = True
                    break
                if greedy_rollout:
                    candidates = [d for d in range(num_devices) if mask[d]]
                    resulting = np.array(
                        simulator.device_compute_costs(
                            [device_tables[d] + [table] for d in candidates]
                        )
                    )
                    if greedy_temperature > 0 and len(candidates) > 1:
                        # Noisy greedy: softmax over negated resulting
                        # costs, temperature relative to their spread.
                        scale = greedy_temperature * max(resulting.mean(), 1e-6)
                        logits = -(resulting - resulting.min()) / scale
                        probs = np.exp(logits - logits.max())
                        probs /= probs.sum()
                        action = candidates[
                            int(self._rng.choice(len(candidates), p=probs))
                        ]
                    else:
                        action = candidates[int(np.argmin(resulting))]
                else:
                    state = self._state(
                        feats[ti],
                        device_costs,
                        device_dims,
                        device_bytes,
                        memory.memory_bytes,
                        total_dim,
                    )
                    logits = policy.forward(state[None, :])[0]
                    logits = np.where(mask, logits, -1e9)
                    logits = logits - logits.max()
                    probs = np.exp(logits)
                    probs /= probs.sum()
                    action = int(self._rng.choice(num_devices, p=probs))
                    steps.append((state, probs, action, mask))

                device_tables[action].append(table)
                device_bytes[action] += t_bytes
                device_dims[action] += table.dim
                device_costs[action] = simulator.device_compute_costs(
                    [device_tables[action]]
                )[0]
                assignment[ti] = action

            if failed:
                # Episode dead-ended on memory; strongly discourage it.
                objective = np.inf
                reward = -100.0
            else:
                objective = self._objective(simulator, device_tables)
                reward = -objective
                if objective < best_objective:
                    best_objective = objective
                    best_assignment = tuple(assignment)

            if greedy_rollout:
                # Off-policy bootstrap episode: no policy update, but its
                # reward seeds the advantage baseline.
                reward_baseline = reward
                continue
            advantage = reward - reward_baseline
            reward_baseline = 0.9 * reward_baseline + 0.1 * reward

            # REINFORCE: re-run the forward passes and accumulate
            # d(-logp * advantage)/dlogits = (softmax - onehot) * adv.
            optimizer.zero_grad()
            for state, probs, action, mask in steps:
                policy.forward(state[None, :])
                grad = probs.copy()
                grad[action] -= 1.0
                grad *= advantage / max(len(steps), 1)
                grad = np.where(mask, grad, 0.0)
                policy.backward(grad[None, :])
            if steps:
                optimizer.step()

        if best_assignment is None:
            return None
        return assignment_to_plan(best_assignment, num_devices)


class AutoShardSharder(_ReinforceSharder):
    """AutoShard-style RL: balance the predicted computation costs."""

    name = "AutoShard"

    def _objective(
        self,
        simulator: NeuroShardSimulator,
        per_device: list[list[TableConfig]],
    ) -> float:
        costs = simulator.device_compute_costs(per_device)
        max_cost = max(costs)
        if max_cost <= 0:
            return 0.0
        # AutoShard maximizes min/max balance; as a minimized objective we
        # use max_cost * (2 - balance): bottleneck-dominated, tie-broken
        # toward balance.
        balance = min(costs) / max_cost
        return max_cost * (2.0 - balance)


class DreamShardSharder(_ReinforceSharder):
    """DreamShard-style RL: minimize the full predicted embedding cost."""

    name = "DreamShard"

    def _objective(
        self,
        simulator: NeuroShardSimulator,
        per_device: list[list[TableConfig]],
    ) -> float:
        return simulator.plan_cost(per_device).max_cost_ms
