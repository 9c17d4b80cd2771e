"""Declarative evaluation campaigns over the solver registry.

The §6-style evaluation surface: describe a (model x cluster x solver x
scale) matrix once, run it anywhere, resume it after a crash::

    from repro.campaigns import CampaignSpec, run_campaign

    spec = CampaignSpec.paper_grid(gpu="L4", family="gpt3",
                                   sizes=("1.3b", "2.7b"),
                                   solvers=("megatron", "mist"),
                                   scale="smoke")
    report = run_campaign(spec, executor="process-pool",
                          executor_options={"workers": 4},
                          directory="runs/l4-grid")
    print(report.table())                       # Fig. 11/12-style rows
    report2 = run_campaign(spec, directory="runs/l4-grid", resume=True)
    assert report2.counters["solved"] == 0      # manifest/cache only

See :mod:`repro.campaigns.spec` (the matrix + exclude rules),
:mod:`repro.campaigns.executors` (``inline`` / ``process-pool`` /
``service``, picked by name; ``process-pool`` runs cells on the
daemon's spawn-started, crash-isolated worker slots with one retry, so
a script using it needs an ``if __name__ == "__main__":`` guard),
:mod:`repro.campaigns.manifest` (resumable on-disk state + event
stream), and :mod:`repro.campaigns.report` (speedup aggregation).
"""

from .executors import (
    ExecutorNotFoundError,
    InlineExecutor,
    ProcessPoolExecutor,
    ServiceExecutor,
    get_executor,
)
from .manifest import (
    CampaignError,
    CampaignManifest,
    finished_cell_record,
    pending_cell_record,
)
from .report import CampaignReport, aggregate
from .runner import run_campaign
from .spec import CampaignCell, CampaignSpec, CampaignValidationError

__all__ = [
    "CampaignCell",
    "CampaignError",
    "CampaignManifest",
    "CampaignReport",
    "CampaignSpec",
    "CampaignValidationError",
    "ExecutorNotFoundError",
    "InlineExecutor",
    "ProcessPoolExecutor",
    "ServiceExecutor",
    "aggregate",
    "finished_cell_record",
    "get_executor",
    "pending_cell_record",
    "run_campaign",
]
