"""Keyed memoization of intra-stage tuning subproblems.

The pruned search (:meth:`repro.core.tuner.MistTuner.search` with
``prune=True``) evaluates many *stage-cost subproblems*: "the Pareto
menu of one stage shape (device group, GPU count, gradient-accumulation
steps, in-flight microbatches, pre/post flags, p2p clamps) over a given
layer-count range". Identical subproblems recur

* across heterogeneous stage -> device-group assignments (different
  assignments share slots),
* across repeated searches of the same tuner (the serial-then-parallel
  fig. 16 re-run, ``repro serve`` solving job variants),
* across the parallel (S, G) fan-out workers, which all share one memo.

:class:`MenuMemo` is a thread-safe LRU keyed by the full subproblem
fingerprint. Entries store the menus *plus* the evaluation counters the
fresh computation produced, so a memo hit replays the counters and
``TuningResult.configurations_evaluated`` stays deterministic no matter
how warm the memo is — only the hit/miss telemetry differs.

The module-level :data:`GLOBAL_MENU_MEMO` is the default shared
instance (bounded; tune with ``REPRO_MENU_MEMO_SIZE``). Menus are pure
functions of their key, so sharing it process-wide is safe: a hit
returns bit-identical menus to a fresh computation.

Beside it, :data:`GLOBAL_KERNEL_CACHE` (a :class:`KernelCache`) holds
the work every solve would otherwise redo before its search starts:
each :class:`~repro.tracing.TracedModel`, keyed by the frozen
``(ModelConfig, GPUSpec, flash)``, and each compiled kernel, keyed by
that trace key plus a purpose tag (the analyzer's three projections,
the engine's component function; the engine's memory kernel needs no
GPU and is keyed ``(ModelConfig, flash, "engine.memory")``). Tuner,
analyzer and execution engine all read from it, so a model is traced
and compiled once per process.
``GLOBAL_MENU_MEMO.clear()`` empties it too, which keeps a "cold" solve
cold. Like the menu memo, it never enters a fingerprint.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

__all__ = ["GLOBAL_KERNEL_CACHE", "GLOBAL_MENU_MEMO", "KernelCache",
           "MemoEntry", "MenuMemo"]

_DEFAULT_MAXSIZE = 4096

#: entries of the process-wide trace/kernel cache: one trace plus four
#: kernels per (model, GPU, flash) and a memory kernel per (model,
#: flash), so room for about a dozen models
_KERNEL_CACHE_SIZE = 64

_T = TypeVar("_T")


@dataclass(frozen=True)
class MemoEntry:
    """One memoized subproblem: menus + the counters that built them."""

    #: ``{layer_count: [ParetoPoint, ...]}`` as returned by
    #: :meth:`repro.core.intra_stage.IntraStageTuner.tune`
    menus: dict
    #: configurations enumerated for these menus (pre-prefilter)
    evaluated: int
    #: configurations the symbolic memory prefilter rejected
    prefiltered: int


class MenuMemo:
    """Thread-safe LRU cache of :class:`MemoEntry` by subproblem key.

    Lookups never block computation: concurrent misses on the same key
    may compute the entry twice, but both computations are pure and
    produce identical values, so the last store wins harmlessly.
    """

    def __init__(self, maxsize: int | None = None, *,
                 kernels: "KernelCache | None" = None):
        if maxsize is None:
            maxsize = int(os.environ.get("REPRO_MENU_MEMO_SIZE",
                                         _DEFAULT_MAXSIZE))
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, MemoEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        #: emptied together with the menus (see :meth:`clear`)
        self._kernels = kernels

    def lookup(self, key: tuple) -> MemoEntry | None:
        """Return the entry for ``key`` (refreshing LRU order) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def store(self, key: tuple, entry: MemoEntry) -> None:
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
