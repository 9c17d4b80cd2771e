"""Baseline distributed-training systems (paper Table 1 and Section 6.1).

Megatron-LM and DeepSpeed are two rows of one execute-and-measure grid
(:class:`GridSearchTuner`); Aceso and the uniform heuristic predict,
then execute. All four run their candidates through
:meth:`~repro.execution.ExecutionEngine.execute`.
"""

from .aceso import AcesoTuner
from .common import (
    BaselineResult,
    Capabilities,
    DeepSpeedTuner,
    GridSearchTuner,
    MegatronTuner,
    pipeline_grids,
)
from .heuristics import UniformHeuristicTuner

#: Table 1 rows for the systems this reproduction implements; Mist's row
#: is appended by the Table 1 benchmark from the tuner's search space.
CAPABILITY_TABLE = (
    MegatronTuner.capabilities,
    DeepSpeedTuner.capabilities,
    AcesoTuner.capabilities,
    UniformHeuristicTuner.capabilities,
    Capabilities(
        name="Mist",
        offload_p="fine", offload_g="fine", offload_o="fine",
        offload_a="fine",
        zero23=True,
        auto_tuning="full",
    ),
)

__all__ = [
    "AcesoTuner",
    "BaselineResult",
    "CAPABILITY_TABLE",
    "Capabilities",
    "DeepSpeedTuner",
    "GridSearchTuner",
    "MegatronTuner",
    "UniformHeuristicTuner",
    "pipeline_grids",
]
