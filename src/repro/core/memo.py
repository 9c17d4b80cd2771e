"""Keyed memoization of intra-stage tuning subproblems.

The pruned search (:meth:`repro.core.tuner.MistTuner.search` with
``prune=True``) evaluates many *stage-cost subproblems*: "the Pareto
menu of one stage shape (device group, GPU count, gradient-accumulation
steps, in-flight microbatches, pre/post flags, p2p clamps) over a given
layer-count range". Identical subproblems recur

* across the (S, G) cells of one search, and across heterogeneous
  stage -> device-group assignments (different assignments share slots),
* across repeated searches of the same tuner (a warm replan after a
  cluster delta, ``repro serve`` solving job variants).

:class:`MenuMemo` is a thread-safe LRU keyed by the full subproblem
fingerprint. Entries store the menus *plus* the evaluation counters the
fresh computation produced, so a memo hit replays the counters and
``TuningResult.configurations_evaluated`` stays deterministic no matter
how warm the memo is — only the hit/miss telemetry differs.

It also holds one :class:`CellBounds` entry per search grid, keyed by
everything its floors read (:meth:`repro.core.tuner.MistTuner._cell_bounds`);
it counts toward the same 4096-entry LRU and hit/miss telemetry.

The module-level :data:`GLOBAL_MENU_MEMO` is the default shared
instance (bounded at :data:`_MENU_MEMO_SIZE` entries of either kind).
Entries are pure functions of their key, so sharing it process-wide is
safe: a hit returns bit-identical values to a fresh computation.

Beside it, :data:`GLOBAL_KERNEL_CACHE` (a :class:`KernelCache`) holds
the work every solve would otherwise redo before its search starts:
each :class:`~repro.tracing.TracedModel`, keyed by the frozen
``(ModelConfig, GPUSpec, flash)``, and each compiled kernel, keyed by
that trace key plus a purpose tag (the analyzer's runtime and memory
kernels, the engine's component function; the engine's memory kernel
needs no GPU and is keyed ``(ModelConfig, flash, "engine.memory")``). Tuner,
analyzer and execution engine all read from it, so a model is traced
and compiled once per process.
``GLOBAL_MENU_MEMO.clear()`` drops menus, bounds and kernels, keeping a
"cold" solve cold. Like the menu memo, it never enters a fingerprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple, TypeVar

__all__ = ["GLOBAL_KERNEL_CACHE", "GLOBAL_MENU_MEMO", "CellBounds",
           "KernelCache", "MemoEntry", "MenuMemo"]

#: entries of the process-wide menu memo
_MENU_MEMO_SIZE = 4096

#: entries of the process-wide trace/kernel cache: one trace plus three
#: kernels per (model, GPU, flash) and a memory kernel per (model,
#: flash), so room for about a dozen models
_KERNEL_CACHE_SIZE = 64

_T = TypeVar("_T")


@dataclass(frozen=True)
class MemoEntry:
    """One memoized subproblem: menus + the counters that built them."""

    #: ``{layer_count: [ParetoPoint, ...]}``
    menus: dict
    #: configurations enumerated for these menus, over budget or not
    evaluated: int
    #: configurations over the memory budget (no runtime evaluation)
    prefiltered: int


class CellBounds(NamedTuple):
    """A search grid's (S, G) cell bounds and feasibility flags, in grid
    order; an infeasible cell's bound is ``inf``."""

    bounds: tuple[float, ...]
    feasible: tuple[bool, ...]


class MenuMemo:
    """Thread-safe LRU cache of :class:`MemoEntry` and
    :class:`CellBounds` by subproblem key.

    Lookups never block computation: concurrent misses on the same key
    may compute the entry twice, but both computations are pure and
    produce identical values, so the last store wins harmlessly.
    """

    def __init__(self, maxsize: int = _MENU_MEMO_SIZE, *,
                 kernels: "KernelCache | None" = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, MemoEntry | CellBounds] = OrderedDict()
        self._hits = 0
        self._misses = 0
        #: emptied together with the menus (see :meth:`clear`)
        self._kernels = kernels

    def lookup(self, key: tuple) -> MemoEntry | CellBounds | None:
        """Return the entry for ``key`` (refreshing LRU order) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def store(self, key: tuple, entry: MemoEntry | CellBounds) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
        if self._kernels is not None:
            self._kernels.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses


class KernelCache:
    """Thread-safe LRU of traced models and compiled kernels.

    :meth:`get` builds a missing entry outside the lock: concurrent
    misses on one key may build it twice, but the first value stored
    wins and every caller gets that one object. Values are pure
    functions of their key, so a hit is bit-identical to a rebuild.
    """

    def __init__(self, maxsize: int = _KERNEL_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()

    def get(self, key: tuple, build: Callable[[], _T]) -> _T:
        """The entry for ``key``, calling ``build()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: process-wide traces and compiled kernels (tuner, analyzer, engine)
GLOBAL_KERNEL_CACHE = KernelCache()

#: default process-wide memo shared by every tuner's pruned search
GLOBAL_MENU_MEMO = MenuMemo(kernels=GLOBAL_KERNEL_CACHE)
