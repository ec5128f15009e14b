"""Load-balancing model: machine speeds, task systems, states, placements.

The paper's model has three ingredients that this subpackage owns:

* **speeds** — positive per-processor speeds scaled so ``s_min = 1``,
  optionally with a granularity ``eps`` (all speeds integer multiples of
  ``eps``), which Theorem 1.2 requires;
* **task systems** — either ``m`` uniform unit-weight tasks or ``m``
  weighted tasks with weights in ``(0, 1]``;
* **states** — the assignment of tasks to processors, either as per-node
  counts (uniform) or as a per-task location array (weighted), plus the
  derived quantities (loads ``W_i/s_i``, deviation ``e = w - wbar``).
"""

from repro.model.speeds import (
    uniform_speeds,
    two_class_speeds,
    linear_speeds,
    geometric_speeds,
    random_integer_speeds,
    granular_speeds,
    normalize_speeds,
    speed_granularity,
    SpeedStats,
    speed_stats,
)
from repro.model.tasks import (
    TaskSystem,
    UniformTaskSystem,
    WeightedTaskSystem,
    uniform_weights,
    random_weights,
    two_class_weights,
)
from repro.model.state import UniformState, WeightedState, LoadStateBase
from repro.model.batch import BatchStateBase, BatchUniformState, BatchWeightedState
from repro.model.placement import (
    all_on_one_placement,
    random_placement,
    proportional_placement,
    adversarial_placement,
    counts_from_assignment,
    place_weighted_all_on_one,
    place_weighted_random,
    place_weighted_proportional,
)

__all__ = [
    "uniform_speeds",
    "two_class_speeds",
    "linear_speeds",
    "geometric_speeds",
    "random_integer_speeds",
    "granular_speeds",
    "normalize_speeds",
    "speed_granularity",
    "SpeedStats",
    "speed_stats",
    "TaskSystem",
    "UniformTaskSystem",
    "WeightedTaskSystem",
    "uniform_weights",
    "random_weights",
    "two_class_weights",
    "UniformState",
    "WeightedState",
    "LoadStateBase",
    "BatchStateBase",
    "BatchUniformState",
    "BatchWeightedState",
    "all_on_one_placement",
    "random_placement",
    "proportional_placement",
    "adversarial_placement",
    "counts_from_assignment",
    "place_weighted_all_on_one",
    "place_weighted_random",
    "place_weighted_proportional",
]
