"""naive-EC (§5.4): Elasticutor with the scheduler's migration-cost and
computation-locality optimisations disabled.

Identical executors, load balancer, and model-based allocation — only
the CPU-to-executor assignment differs: sequential bin-packing
(executors in index order, nodes filled in order), blind to the existing
assignment and to executor homes.  Table 2 measures the consequences
(≈5x state migration, ≈10x remote data transfer versus the optimising
scheduler).
"""
from __future__ import annotations

import numpy as np

from repro.core.assignment import AssignmentResult, assign_cores_naive
from repro.paradigms.elasticutor import ElasticutorSim


class NaiveECSim(ElasticutorSim):
    """Elasticutor minus scheduler optimisations."""

    name = "naive-ec"

    def _assign(
        self,
        k: np.ndarray,
        state_bytes: np.ndarray,
        local_node: np.ndarray,
        data_intensity: np.ndarray,
    ) -> AssignmentResult:
        return assign_cores_naive(k, self._Xg, self._cores, state_bytes)
