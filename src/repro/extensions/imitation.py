"""Self-imitation sharding policy (paper Appendix H).

Appendix H sketches how reinforcement learning could come back on top of
"pre-train, and search": "select good sharding plans from the system log
and use supervised losses to train a policy" (self-imitation /
offline-RL on sharding logs).  The payoff is *amortization* — the beam
search takes seconds per task, while a distilled policy assigns tables
in one forward pass per table, useful when thousands of models are
sharded daily.

:class:`ImitationSharder` implements that loop:

1. **Log generation** — run NeuroShard's search on training tasks and
   record (state, device) pairs from its plans' greedy reconstruction.
2. **Behaviour cloning** — train an MLP policy with cross-entropy on the
   logged decisions (the supervised loss of Appendix H).
3. **Deployment** — shard unseen tasks by argmax policy rollout, with
   memory-infeasible devices masked.

The policy is table-wise only (it imitates the placement, not the
column splits), so it composes with NeuroShard's column-wise plan or the
row-wise preprocessor when oversized tables are present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

__all__ = ["ImitationDataset", "ImitationSharder"]

_DEVICE_FEATURES = 3


@dataclass
class ImitationDataset:
    """Logged (state, action) decisions from demonstration plans."""

    states: np.ndarray  # [N, F]
    actions: np.ndarray  # [N]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions):
            raise ValueError("states and actions must align")
        if len(self.states) == 0:
            raise ValueError("empty imitation dataset")

    def __len__(self) -> int:
        return len(self.states)


class ImitationSharder:
    """Behaviour-cloned table-wise sharding policy.

    Args:
        models: the cost-model bundle (used to featurize states the same
            way the demonstrations were featurized).
        hidden: policy MLP hidden sizes.
        seed: initialization/rollout seed.
    """

    name = "Imitation"

    def __init__(
        self,
        models: PretrainedCostModels,
        hidden: tuple[int, ...] = (128, 64),
        seed: int = 0,
    ) -> None:
        self.models = models
        self._rng = rng_from_seed(seed)
        input_dim = (
            models.featurizer.num_features
            + _DEVICE_FEATURES * models.num_devices
        )
        self.policy = Sequential.mlp(
            [input_dim, *hidden, models.num_devices],
            rng=self._rng,
            name="imitation",
        )
        self._trained = False

    # ------------------------------------------------------------------
    # state encoding (shared between logging and deployment)
    # ------------------------------------------------------------------

    def _state(
        self,
        table_features: np.ndarray,
        device_costs: Sequence[float],
        device_dims: Sequence[int],
        device_bytes: Sequence[int],
        memory_bytes: int,
        total_dim: int,
    ) -> np.ndarray:
        dev = []
        for cost, dim, used in zip(device_costs, device_dims, device_bytes):
            dev.extend(
                (cost / 10.0, dim / max(total_dim, 1), used / memory_bytes)
            )
        return np.concatenate([table_features, np.array(dev)])

    def _replay(
        self,
        task: ShardingTask,
        tables: Sequence[TableConfig],
        assignment: Sequence[int],
        simulator: NeuroShardSimulator,
    ) -> tuple[list[np.ndarray], list[int]]:
        """Reconstruct the greedy decision sequence of a finished plan.

        Tables are replayed in the search's descending-predicted-cost
        order; at each step the state is what the policy would see and
        the "action" is the device the demonstration plan chose.
        """
        memory = MemoryModel(task.memory_bytes)
        featurizer = self.models.featurizer
        num_devices = task.num_devices
        total_dim = sum(t.dim for t in tables)
        singles = simulator.single_table_costs(list(tables))
        order = np.argsort(-singles, kind="stable")

        device_tables: list[list[TableConfig]] = [[] for _ in range(num_devices)]
        device_costs = [0.0] * num_devices
        device_dims = [0] * num_devices
        device_bytes = [0] * num_devices
        states, actions = [], []
        for ti in order:
            table = tables[ti]
            states.append(
                self._state(
                    featurizer.features(table),
                    device_costs,
                    device_dims,
                    device_bytes,
                    memory.memory_bytes,
                    total_dim,
                )
            )
            action = int(assignment[ti])
            actions.append(action)
            device_tables[action].append(table)
            device_bytes[action] += memory.table_bytes(table)
            device_dims[action] += table.dim
            device_costs[action] = simulator.device_compute_costs(
                [device_tables[action]]
            )[0]
        return states, actions

    # ------------------------------------------------------------------
    # log generation + behaviour cloning
    # ------------------------------------------------------------------

    def build_dataset(
        self,
        tasks: Sequence[ShardingTask],
        demonstrations: Sequence[ShardingPlan],
    ) -> ImitationDataset:
        """Turn demonstration plans into a supervised dataset."""
        if len(tasks) != len(demonstrations):
            raise ValueError(
                f"{len(tasks)} tasks but {len(demonstrations)} demonstrations"
            )
        simulator = NeuroShardSimulator(self.models, CostCache())
        states, actions = [], []
        for task, plan in zip(tasks, demonstrations):
            sharded = plan.sharded_tables(task.tables)
            s, a = self._replay(task, sharded, plan.assignment, simulator)
            states.extend(s)
            actions.extend(a)
        return ImitationDataset(
            states=np.stack(states), actions=np.array(actions, dtype=np.int64)
        )

    def fit(
        self,
        dataset: ImitationDataset,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> list[float]:
        """Cross-entropy behaviour cloning; returns the loss curve."""
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        optimizer = Adam(self.policy.parameters(), lr=lr)
        n = len(dataset)
        curve = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                x = dataset.states[idx]
                y = dataset.actions[idx]
                logits = self.policy.forward(x)
                shifted = logits - logits.max(axis=1, keepdims=True)
                exp = np.exp(shifted)
                probs = exp / exp.sum(axis=1, keepdims=True)
                nll = -np.log(probs[np.arange(len(y)), y] + 1e-12)
                epoch_loss += float(nll.sum())
                grad = probs
                grad[np.arange(len(y)), y] -= 1.0
                grad /= len(y)
                optimizer.zero_grad()
                self.policy.backward(grad)
                optimizer.step()
            curve.append(epoch_loss / n)
        self._trained = True
        return curve

    def fit_from_search(
        self,
        sharder,
        tasks: Sequence[ShardingTask],
        epochs: int = 60,
    ) -> list[float]:
        """Convenience: run a teacher sharder on tasks, clone its plans.

        Tasks the teacher cannot solve are skipped (self-imitation keeps
        only *good* episodes, per Appendix H).
        """
        kept_tasks, demos = [], []
        for task in tasks:
            result = sharder.shard(task)
            plan = getattr(result, "plan", result)
            if plan is None or getattr(result, "feasible", True) is False:
                continue
            kept_tasks.append(task)
            demos.append(plan)
        if not demos:
            raise RuntimeError("teacher solved none of the training tasks")
        return self.fit(self.build_dataset(kept_tasks, demos), epochs=epochs)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def shard(self, task: ShardingTask) -> ShardingPlan | None:
        """One-pass policy rollout (no search)."""
        if not self._trained:
            raise RuntimeError("call fit()/fit_from_search() before shard()")
        if task.num_devices != self.models.num_devices:
            raise ValueError(
                f"policy is for {self.models.num_devices} devices, task has "
                f"{task.num_devices}"
            )
        simulator = NeuroShardSimulator(self.models, CostCache())
        memory = MemoryModel(task.memory_bytes)
        featurizer = self.models.featurizer
        tables = list(task.tables)
        num_devices = task.num_devices
        total_dim = sum(t.dim for t in tables)
        singles = simulator.single_table_costs(tables)
        order = np.argsort(-singles, kind="stable")

        device_tables: list[list[TableConfig]] = [[] for _ in range(num_devices)]
        device_costs = [0.0] * num_devices
        device_dims = [0] * num_devices
        device_bytes = [0] * num_devices
        assignment = [0] * len(tables)
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
                return None
            state = self._state(
                featurizer.features(table),
                device_costs,
                device_dims,
                device_bytes,
                memory.memory_bytes,
                total_dim,
            )
            logits = self.policy.forward(state[None, :])[0]
            logits = np.where(mask, logits, -np.inf)
            action = int(np.argmax(logits))
            assignment[ti] = action
            device_tables[action].append(table)
            device_bytes[action] += t_bytes
            device_dims[action] += table.dim
            device_costs[action] = simulator.device_compute_costs(
                [device_tables[action]]
            )[0]
        return assignment_to_plan(assignment, num_devices)
