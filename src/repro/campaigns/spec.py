"""Declarative tuning campaigns — the paper's §6 evaluation grids as data.

A :class:`CampaignSpec` describes a whole evaluation matrix the way a
:class:`~repro.api.job.TuningJob` describes one tuning request: model
sizes (explicit specs, or a ``family`` + ``sizes`` grid following the
Table 4 scaling rule), clusters (implied homogeneous shorthands,
explicit — possibly heterogeneous — cluster dicts, or paths to cluster
JSON files), solvers, scale presets, and optional per-axis sequence
length / global batch overrides, minus any cells matched by ``exclude``
rules. Specs are JSON round-trippable and content-addressed
(:meth:`CampaignSpec.fingerprint`), and :meth:`CampaignSpec.expand`
compiles one to the flat list of fingerprinted
:class:`CampaignCell`\\ s — (solver, job) pairs — that the executors in
:mod:`repro.campaigns.executors` actually run.

Cells are plain :class:`TuningJob`\\ s built from the same fields a
single job would carry, so a campaign cell's fingerprint — and
therefore its :class:`~repro.api.cache.PlanCache` entry — is identical
to the one an individual :func:`repro.api.solve` call would produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api.job import JobValidationError, TuningJob
from repro.api.registry import solver_names
from repro.core.schema import (BOOL, NULL, OBJECT, DecodeError, Field, Int,
                               List, OneOf, Str, Table, content_hash,
                               decode, loads)
from repro.hardware import cluster_from_dict

__all__ = ["CampaignCell", "CampaignSpec", "CampaignValidationError"]

# -- the paper's Table 4 scaling rule ------------------------------------
# GPUs and global batch grow with model size: 1.3B on 2 GPUs with batch
# 32 up to 22B on 32 GPUs with batch 512; sequence length 2048 on L4
# machines and 4096 on A100 machines.

#: model size tag -> number of GPUs
_SIZE_TO_GPUS = {"1.3b": 2, "2.7b": 4, "6.7b": 8, "7b": 8, "13b": 16,
                 "22b": 32}
#: model size tag -> global batch size
_SIZE_TO_BATCH = {"1.3b": 32, "2.7b": 64, "6.7b": 128, "7b": 128,
                  "13b": 256, "22b": 512}


def gpu_count_for_size(size: str) -> int:
    """GPU count the Table 4 scaling rule pairs with a model size."""
    return _SIZE_TO_GPUS[size.lower()]


def batch_for_size(size: str) -> int:
    """Global batch the Table 4 scaling rule pairs with a model size."""
    return _SIZE_TO_BATCH[size.lower()]


def default_seq_len(gpu_name: str) -> int:
    """Paper default: 2048 on L4 machines, 4096 otherwise."""
    return 2048 if gpu_name == "L4" else 4096


#: cell-axis keys an ``exclude`` rule may match on
EXCLUDE_KEYS = ("solver", "model", "cluster", "scale", "seq_len",
                "global_batch")

#: cluster shorthand ``{"gpu": ..., "num_gpus": ...}`` — the implied
#: homogeneous form whose jobs carry no explicit cluster dict (keeping
#: their fingerprints identical to plain ``TuningJob(gpu=, num_gpus=)``)
_SHORTHAND_KEYS = {"gpu", "num_gpus"}


class CampaignValidationError(DecodeError):
    """A campaign spec is inconsistent, or its matrix cannot expand."""


@dataclass(frozen=True)
class CampaignCell:
    """One expanded campaign point: a solver on a declarative job."""

    solver: str
    job: TuningJob
    #: axis labels the cell was expanded from (for exclusion/reporting)
    model: str
    cluster: str
    scale: str

    @property
    def cell_id(self) -> str:
        """Stable identity: the plan-cache key pair, joined."""
        return f"{self.solver}-{self.job.fingerprint()}"

    @property
    def workload(self) -> str:
        return self.job.name

    def axes(self) -> dict:
        """The axis values ``exclude`` rules match against."""
        return {
            "solver": self.solver,
            "model": self.model,
            "cluster": self.cluster,
            "scale": self.scale,
            "seq_len": self.job.seq_len,
            "global_batch": self.job.global_batch,
        }


@dataclass(frozen=True)
class _ResolvedCluster:
    """One cluster-axis entry after normalization."""

    label: str
    gpu_name: str
    num_gpus: int | None
    cluster_dict: dict | None


def _resolve_cluster_entry(entry, what: str) -> _ResolvedCluster:
    if isinstance(entry, str):
        try:
            data = loads(Path(entry).read_text(), f"cluster file {entry!r}")
        except (OSError, DecodeError) as exc:
            raise CampaignValidationError(
                f"cannot read cluster file {entry!r}: {exc}") from exc
        return _resolve_cluster_entry(data, f"cluster file {entry!r}")
    if isinstance(entry, dict) and set(entry) <= _SHORTHAND_KEYS:
        gpu = entry.get("gpu", "L4")
        num_gpus = entry.get("num_gpus")
        label = f"{gpu}x{num_gpus}" if num_gpus else str(gpu)
        return _ResolvedCluster(label=label, gpu_name=gpu,
                                num_gpus=num_gpus, cluster_dict=None)
    # explicit cluster description: keep the *raw* dict on the job so
    # fingerprints match single-job runs built from the same dict
    try:
        parsed = cluster_from_dict(entry, what)
    except DecodeError as exc:
        raise CampaignValidationError(
            f"invalid cluster entry: {exc}") from exc
    return _ResolvedCluster(label=parsed.name,
                            gpu_name=parsed.sub_clusters[0][1].gpu.name,
                            num_gpus=parsed.total_gpus,
                            cluster_dict=dict(entry))


def _scale_label(scale) -> str:
    if isinstance(scale, str):
        return scale
    return str(scale.get("name", "custom"))


def _rule_matches(rule: dict, axes: dict) -> bool:
    for key, wanted in rule.items():
        value = axes[key]
        if isinstance(wanted, (list, tuple)):
            if value not in wanted:
                return False
        elif value != wanted:
            return False
    return True


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative evaluation campaign (a matrix of tuning cells).

    The model axis is ``models`` (explicit specs), a ``family`` +
    ``sizes`` grid (GPU count and global batch follow the paper's
    Table 4 scaling rule unless overridden), or both. Empty
    ``seq_lens`` / ``global_batches`` mean "derive the paper default"
    (sequence length per GPU type; batch per model size — explicit
    models therefore require ``global_batches``).
    """

    name: str
    solvers: tuple[str, ...]
    models: tuple[str, ...] = ()
    family: str | None = None
    sizes: tuple[str, ...] = ()
    clusters: tuple = ({"gpu": "L4"},)
    scales: tuple = ("quick",)
    seq_lens: tuple = ()
    global_batches: tuple = ()
    flash: bool = True
    space: str | dict = "mist"
    interference: str = "auto"
    keep_top: int = 3
    #: speedup-normalization solver (default: the first one)
    reference: str | None = None
    #: partial-match rules over cell axes; a cell matching any rule is
    #: dropped from the expansion
    exclude: tuple = ()

    def __post_init__(self):
        for name in ("solvers", "models", "sizes", "clusters", "scales",
                     "seq_lens", "global_batches", "exclude"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.name or not isinstance(self.name, str):
            raise CampaignValidationError("campaign needs a non-empty name")
        if not self.solvers:
            raise CampaignValidationError("campaign needs >= 1 solver")
        if not self.models and not (self.family and self.sizes):
            raise CampaignValidationError(
                "campaign needs models=... or family=... with sizes=...")
        if self.sizes and not self.family:
            raise CampaignValidationError("sizes=... requires family=...")
        if not self.clusters:
            raise CampaignValidationError("campaign needs >= 1 cluster")
        if not self.scales:
            raise CampaignValidationError("campaign needs >= 1 scale")
        if self.reference is not None and self.reference not in self.solvers:
            raise CampaignValidationError(
                f"reference {self.reference!r} is not among solvers "
                f"{list(self.solvers)}")
        for rule in self.exclude:
            if not isinstance(rule, dict) or not rule:
                raise CampaignValidationError(
                    f"exclude rules must be non-empty dicts, got {rule!r}")
            unknown = set(rule) - set(EXCLUDE_KEYS)
            if unknown:
                raise CampaignValidationError(
                    f"exclude rule {rule!r} uses unknown axes "
                    f"{sorted(unknown)}; valid: {list(EXCLUDE_KEYS)}")

    # -- expansion ---------------------------------------------------------

    def _model_entries(self) -> list[tuple[str, str | None]]:
        """(model spec, Table-4 size tag or None) pairs, in axis order."""
        entries = [(model, None) for model in self.models]
        if self.family:
            entries.extend(
                (f"{self.family}-{size}", size) for size in self.sizes)
        return entries

    def _excluded(self, axes: dict) -> bool:
        return any(_rule_matches(rule, axes) for rule in self.exclude)

    def expand(self, *, check_solvers: bool = True) -> list[CampaignCell]:
        """Compile the matrix to fingerprinted cells (duplicates merged).

        ``check_solvers=False`` skips registry validation — useful when
        inspecting a manifest written by a process with extra solvers
        registered.
        """
        if check_solvers:
            unknown = [s for s in self.solvers if s not in solver_names()]
            if unknown:
                raise CampaignValidationError(
                    f"unknown solver(s) {unknown}; "
                    f"registered: {list(solver_names())}")
        cells: list[CampaignCell] = []
        seen: set[str] = set()
        for index, entry in enumerate(self.clusters):
            resolved = _resolve_cluster_entry(
                entry, f"campaign.clusters[{index}]")
            for model, size in self._model_entries():
                num_gpus = resolved.num_gpus
                if num_gpus is None:
                    if size is None:
                        raise CampaignValidationError(
                            f"cluster {resolved.label!r} has no GPU count "
                            f"and model {model!r} is not a family size — "
                            f"add num_gpus or use family/sizes")
                    try:
                        num_gpus = gpu_count_for_size(size)
                    except KeyError as exc:
                        raise CampaignValidationError(
                            f"unknown size: {exc}") from exc
                for scale in self.scales:
                    for seq in (self.seq_lens or (None,)):
                        seq_len = (seq if seq is not None
                                   else default_seq_len(resolved.gpu_name))
                        for batch in (self.global_batches or (None,)):
                            if batch is None:
                                if size is None:
                                    raise CampaignValidationError(
                                        f"model {model!r} is not a family "
                                        f"size — set global_batches=...")
                                try:
                                    batch = batch_for_size(size)
                                except KeyError as exc:
                                    raise CampaignValidationError(
                                        f"unknown size: {exc}") from exc
                            try:
                                job = TuningJob(
                                    model=model, gpu=resolved.gpu_name,
                                    num_gpus=num_gpus, global_batch=batch,
                                    seq_len=seq_len, flash=self.flash,
                                    space=self.space, scale=scale,
                                    interference=self.interference,
                                    keep_top=self.keep_top,
                                    cluster=resolved.cluster_dict,
                                )
                            except JobValidationError as exc:
                                raise CampaignValidationError(
                                    f"cell ({model}, {resolved.label}): "
                                    f"{exc}") from exc
                            for solver in self.solvers:
                                cell = CampaignCell(
                                    solver=solver, job=job, model=model,
                                    cluster=resolved.label,
                                    scale=_scale_label(scale),
                                )
                                if self._excluded(cell.axes()):
                                    continue
                                if cell.cell_id in seen:
                                    continue
                                seen.add(cell.cell_id)
                                cells.append(cell)
        return cells

    # -- convenience constructors -----------------------------------------

    @classmethod
    def paper_grid(cls, *, gpu: str = "L4", family: str = "gpt3",
                   sizes: tuple[str, ...] = ("1.3b", "2.7b", "6.7b",
                                             "13b", "22b"),
                   solvers: tuple[str, ...] = ("megatron", "deepspeed",
                                               "mist"),
                   scale: str = "quick", **kwargs) -> "CampaignSpec":
        """The Figs. 11/12 matrix: one GPU type, Table 4 size scaling."""
        kwargs.setdefault("name", f"{family}-{gpu}-{scale}".lower())
        return cls(solvers=tuple(solvers), family=family,
                   sizes=tuple(sizes), clusters=({"gpu": gpu},),
                   scales=(scale,), **kwargs)

    def with_(self, **changes) -> "CampaignSpec":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in CAMPAIGN.fields}
        # tuple axes become lists of copied entries
        return {name: [dict(v) if isinstance(v, dict) else v for v in value]
                if isinstance(value, tuple) else value
                for name, value in out.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        fields = decode(CAMPAIGN, data, "campaign", CampaignValidationError)
        return cls(**{key: fields[key] for key in data if key in fields})

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(loads(text, "campaign"))

    def fingerprint(self) -> str:
        """Stable content hash; the manifest's resume-compatibility key."""
        return content_hash(self.to_dict())


#: a cluster, scale or space entry: a file path, preset name or slug,
#: or an inlined dict
_SLUG_OR_DICT = OneOf(Str(), OBJECT)

#: a campaign spec (``CampaignSpec.to_dict``). Strict: specs are
#: hand-written files, so a typo'd axis ("seq_len" for "seq_lens") must
#: fail loudly, not silently run a different grid. "parallelism" is the
#: one removed field: manifests written before the search lost its
#: thread fan-out still carry it, and it is ignored. Emptiness and the
#: other cross-field rules are checked when the spec is built
CAMPAIGN = Table("campaign spec", (
    Field("name", Str()),
    Field("solvers", List(Str())),
    Field("models", List(Str()), CampaignSpec.models),
    Field("family", OneOf(NULL, Str()), CampaignSpec.family),
    Field("sizes", List(Str()), CampaignSpec.sizes),
    Field("clusters", List(_SLUG_OR_DICT), CampaignSpec.clusters),
    Field("scales", List(_SLUG_OR_DICT), CampaignSpec.scales),
    Field("seq_lens", List(Int(ge=1)), CampaignSpec.seq_lens),
    Field("global_batches", List(Int(ge=1)), CampaignSpec.global_batches),
    Field("flash", BOOL, CampaignSpec.flash),
    Field("space", _SLUG_OR_DICT, CampaignSpec.space),
    Field("interference", Str(choices=("auto", "none")),
          CampaignSpec.interference),
    Field("keep_top", Int(ge=1), CampaignSpec.keep_top),
    Field("reference", OneOf(NULL, Str()), CampaignSpec.reference),
    Field("exclude", List(OBJECT), CampaignSpec.exclude),
), ignore=frozenset({"parallelism"}))
