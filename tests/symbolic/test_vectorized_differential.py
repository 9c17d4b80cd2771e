"""Differential harness: vectorized vs interpreted evaluation bit-identity.

The vectorized cost-model engine's contract is *bit-identity*, not mere
closeness: for the same expression and the same IEEE-754 inputs the
compiled numpy path must produce the exact bits the per-row interpreter
produces, because the tuner's plan hashes and tie-breaks flow through
these floats unchanged. The tests here attack that contract from two
directions:

* **expression level** — seeded random expression trees evaluated four
  ways (batched interpreter, per-row scalar interpreter, scalar
  compiled calls, whole-array compiled call) must agree bit for bit,
  including NaN/inf propagation, empty menus and length-1 menus;
* **grid level** — the intra-stage tuner's menu environment, each
  symbol on its own grid axis (what it feeds the kernels), must give
  the analyzer's predictions the exact bits the same menu with every
  symbol spread to a flat column gives, on the tuner's memory-feasible
  rows too;
* **search level** — ``MistTuner.search`` with
  :meth:`~repro.symbolic.CompiledExpr.interpret` swapped in for the
  compiled closures must return byte-identical plans and identical work
  counters, with prune on and off, on homogeneous *and* heterogeneous
  clusters.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.benchmarking import plan_hash
from repro.core import (
    NAMED_SPACES,
    SPACE_MIST,
    MenuMemo,
    MistTuner,
    StagePrediction,
    SymbolicPerformanceAnalyzer,
)
from repro.core.intra_stage import IntraStageTuner, StageShape
from repro.core.tuner import traced_model
from repro.costmodel import calibrated_interference
from repro.core.spaces import get_scale
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model
import repro.symbolic
from repro.symbolic import (
    Ceil,
    CompiledExpr,
    EvaluationError,
    Expr,
    Sym,
    as_expr,
    compile_expr,
    evaluate,
    smax,
    smin,
)

SYMBOL_NAMES = ("x", "y", "z")
SYMS = tuple(Sym(name) for name in SYMBOL_NAMES)


# ---------------------------------------------------------------------------
# seeded random expression trees
# ---------------------------------------------------------------------------

def _random_expr(rng: random.Random, depth: int):
    """A random expression tree over x, y, z covering every node kind,
    with NaN among its constants."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(SYMS)
        if roll < 0.75:
            return as_expr(rng.choice([-7, -2, 0, 1, 2, 3, 8, 64]))
        if roll < 0.8:
            return as_expr(float("nan"))
        return as_expr(rng.uniform(-50.0, 50.0))
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    ops = [
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / (b + 13),          # shift, not avoid: zero still possible
        lambda: smax(a, b),
        lambda: smin(a, b),
        lambda: Ceil.make(a / 4),
    ]
    return rng.choice(ops)()


def _random_env(rng: random.Random, n: int, special: bool) -> dict:
    """A batched env of ``n`` rows; sprinkles NaN/inf when ``special``."""
    env = {}
    for name in SYMBOL_NAMES:
        col = np.asarray(
            [rng.uniform(-100.0, 100.0) for _ in range(n)], dtype=float
        ).reshape(n)
        if special and n:
            for value in (np.nan, np.inf, -np.inf):
                col[rng.randrange(n)] = value
        env[name] = col
    return env


def _bit_identical(a, b) -> bool:
    """Exact float64 equality, NaN == NaN (bitwise contract)."""
    return np.array_equal(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_nan=True
    )


def _describe(expr, env, lhs, rhs, what: str) -> str:
    return (f"{what} diverged for {expr!r}\n env={env}\n"
            f" lhs={np.asarray(lhs)!r}\n rhs={np.asarray(rhs)!r}")


def _seeded_expr(seed: int):
    """The tree ``test_paths_agree_elementwise`` draws for ``seed``,
    with the generator that goes on to draw its env."""
    rng = random.Random(0xD1FF + seed)
    return _random_expr(rng, depth=4), rng


class TestExpressionDifferential:
    """Four evaluation paths agree bitwise on seeded random trees."""

    def test_seeded_trees_cover_every_node_class(self):
        # a node type added to repro.symbolic without a branch in
        # _random_expr would go unchecked by the oracle below
        exported = {obj for obj in vars(repro.symbolic).values()
                    if isinstance(obj, type) and issubclass(obj, Expr)
                    and obj is not Expr}
        seen = set()
        for seed in range(40):
            stack = [_seeded_expr(seed)[0]]
            while stack:
                node = stack.pop()
                seen.add(type(node))
                stack.extend(node.children)
        assert exported <= seen, sorted(c.__name__ for c in exported - seen)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_paths_agree_elementwise(self, seed, n):
        expr, rng = _seeded_expr(seed)
        env = _random_env(rng, n, special=seed % 2 == 0)
        fn = compile_expr(expr, arg_names=SYMBOL_NAMES)

        with np.errstate(all="ignore"):
            batched = np.broadcast_to(
                np.asarray(evaluate(expr, env), dtype=float), (n,)
            )
            vectorized = np.broadcast_to(
                np.asarray(fn(**env), dtype=float), (n,)
            )
            ref = np.broadcast_to(
                np.asarray(fn.interpret(**env), dtype=float), (n,)
            )
            scalar = np.asarray(
                [fn(**{k: float(v[i]) for k, v in env.items()})
                 for i in range(n)],
                dtype=float,
            ).reshape(n)

        assert _bit_identical(vectorized, batched), _describe(
            expr, env, vectorized, batched, "compiled-array vs interpreter")
        assert _bit_identical(vectorized, ref), _describe(
            expr, env, vectorized, ref, "compiled-array vs interpret()")
        assert _bit_identical(vectorized, scalar), _describe(
            expr, env, vectorized, scalar, "compiled-array vs scalar calls")

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_env_returns_scalar(self, seed):
        rng = random.Random(0xBEEF + seed)
        expr = _random_expr(rng, depth=3)
        env = {name: rng.uniform(-10.0, 10.0) for name in SYMBOL_NAMES}
        fn = compile_expr(expr, arg_names=SYMBOL_NAMES)
        with np.errstate(all="ignore"):
            direct = fn(**env)
            ref = fn.interpret(**env)
        assert np.ndim(ref) == 0
        assert _bit_identical(direct, ref)

    def test_multi_output_interpret_matches_call(self):
        x, y, z = SYMS
        exprs = [x + y * z, smax(x, y) / (z + 13), Ceil.make(x * y / 4)]
        fn = compile_expr(exprs, arg_names=SYMBOL_NAMES)
        env = {
            "x": np.array([1.0, -3.5, np.inf]),
            "y": np.array([2.0, 0.25, -1.0]),
            "z": np.array([-4.0, np.nan, 9.0]),
        }
        with np.errstate(all="ignore"):
            called = fn(**env)
            interpreted = fn.interpret(**env)
        assert isinstance(called, tuple) and isinstance(interpreted, tuple)
        assert len(called) == len(interpreted) == len(exprs)
        for got, want in zip(interpreted, called):
            assert _bit_identical(got, want)

    def test_broadcasting_matches(self):
        # scalar + array env rows broadcast identically on both paths
        x, y, z = SYMS
        fn = compile_expr(x * y + z, arg_names=SYMBOL_NAMES)
        env = {"x": 3.0, "y": np.array([1.0, 2.0, 4.0]), "z": -1.5}
        assert _bit_identical(fn.interpret(**env), fn(**env))


class TestEvaluationErrors:
    def test_missing_symbols_all_reported_with_root(self):
        x, y, z = SYMS
        expr = x + y * z
        with pytest.raises(EvaluationError) as exc:
            evaluate(expr, {"y": 2.0})
        message = str(exc.value)
        # every missing name, not just the first one encountered
        assert "'x'" in message and "'z'" in message
        assert "'y'" not in message.split(";")[0]
        # and the expression root so the caller knows *which* formula
        assert "(x + (y * z))" in message or "x" in message

    def test_interpret_requires_raw_trees(self):
        bare = CompiledExpr(lambda a: a, ("x",), 1, "def _compiled(a): ...")
        with pytest.raises(EvaluationError, match="raw expression trees"):
            bare.interpret(x=1.0)


# ---------------------------------------------------------------------------
# grid-level differential: axis-factored menu grid vs flat columns
# ---------------------------------------------------------------------------

#: (GPU, model, stage GPUs, global batch, inter-group p2p link)
GRID_CASES = [
    ("L4", "gpt3-1.3b", 4, 32, None),
    ("L4", "gpt3-6.7b", 4, 64, (2.5e9, 4e-5)),
    ("A100-40GB", "gpt3-1.3b", 8, 64, None),
    ("A100-40GB", "gpt3-22b", 8, 64, (1.25e10, 2.5e-5)),
]

#: fields :meth:`SymbolicPerformanceAnalyzer.predict_feasible` gives as
#: columns over the feasible rows; the others keep their grid axes
ROW_FIELDS = ("t_first", "t_last", "delta")


class TestFactoredGridDifferential:
    @pytest.mark.parametrize("case", GRID_CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in GRID_CASES])
    def test_factored_grid_matches_flat_columns(self, case, monkeypatch):
        gpu, model, stage_gpus, global_batch, link = case
        cluster = make_cluster(gpu, 1, 8)
        analyzer = SymbolicPerformanceAnalyzer(
            traced_model(get_model(model), cluster.gpu, flash=True),
            cluster)
        tuner = IntraStageTuner(
            analyzer, get_scale("quick").apply(SPACE_MIST),
            global_batch=global_batch, seq_len=2048)
        shape = StageShape(stage_gpus=stage_gpus, gacc=2, inflight=2,
                           has_pre=False, has_post=True, p2p_link=link)
        # factored and flat evaluation agree only because every kernel
        # op is correctly rounded; np.power need not be
        for fn in (analyzer._fn, analyzer._mem_fn):
            assert "_np.power" not in fn.source

        seen = []
        predict_feasible = analyzer.predict_feasible

        def spy(env, peak_mem):
            rows, pred = predict_feasible(env, peak_mem)
            seen.append((env, rows, pred))
            return rows, pred

        monkeypatch.setattr(analyzer, "predict_feasible", spy)
        tuner.tune(shape, [2, 4])
        monkeypatch.undo()
        [(env, rows, tuned)] = seen
        grid = np.broadcast(*env.values()).shape
        assert len(grid) == 7 and sum(extent > 1 for extent in grid) >= 5
        flat = {name: np.broadcast_to(value, grid).ravel()
                for name, value in env.items()}

        ref = analyzer.predict(flat)
        factored = analyzer.predict(env)
        for name in StagePrediction.__dataclass_fields__:
            got, want = getattr(factored, name), getattr(ref, name)
            assert got.shape == grid, name
            assert got.ravel().tobytes() == want.tobytes(), name
        for method in (analyzer.predict_memory, analyzer.compute_channel):
            got, want = method(env), method(flat)
            assert got.shape == grid
            assert got.ravel().tobytes() == want.tobytes(), method.__name__

        # what the tuner ran: the memory-feasible rows, some Algorithm 1
        # calls on the gathered rows
        assert rows.tolist() == np.flatnonzero(
            ref.peak_mem <= analyzer.memory_budget).tolist()
        assert rows.size
        for name in StagePrediction.__dataclass_fields__:
            got = getattr(tuned, name)
            if name not in ROW_FIELDS:
                got = np.broadcast_to(got, grid).ravel()[rows]
            assert got.tobytes() == getattr(ref, name)[rows].tobytes(), name


# ---------------------------------------------------------------------------
# search-level differential: whole tuner runs, compiled vs interpreted
# ---------------------------------------------------------------------------

SMOKE = get_scale("smoke")


def _mixed_cluster() -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def _make_tuner(cluster, space: str) -> MistTuner:
    pcie_only = True
    if not isinstance(cluster, HeterogeneousCluster):
        pcie_only = not cluster.gpu.has_nvlink
    return MistTuner(
        get_model("gpt3-1.3b"), cluster, seq_len=2048,
        space=SMOKE.apply(NAMED_SPACES[space]),
        interference=calibrated_interference(pcie_only),
        max_gacc_candidates=SMOKE.max_gacc_candidates,
    )


def _plan_bytes(plan):
    return None if plan is None else plan.to_json()


class TestSearchDifferential:
    """The compiled closures are interchangeable with the interpreter:
    same plans, same work accounting.

    Spaces are kept small ('3d', '3d-ckpt') because the interpreted
    reference path costs ~5ms per configuration by design.
    """

    @pytest.mark.parametrize("prune", [False, True],
                             ids=["exhaustive", "pruned"])
    @pytest.mark.parametrize("cluster_kind", ["homogeneous", "heterogeneous"])
    def test_engines_bit_identical(self, cluster_kind, prune, monkeypatch):
        cluster = (make_cluster("L4", 1, 2) if cluster_kind == "homogeneous"
                   else _mixed_cluster())
        tuner = _make_tuner(cluster, "3d-ckpt")
        vec = tuner.search(16, keep_top=3, prune=prune, memo=MenuMemo())
        interpreted = []

        def interpret(fn, **env):
            interpreted.append(fn)
            return CompiledExpr.interpret(fn, **env)

        # every compiled-closure call now walks the raw expression trees;
        # a fresh memo keeps compiled menus from replaying
        monkeypatch.setattr(CompiledExpr, "__call__", interpret)
        ref = tuner.search(16, keep_top=3, prune=prune, memo=MenuMemo())
        monkeypatch.undo()

        assert interpreted, "the search never reached the interpreter"
        assert _plan_bytes(vec.best_plan) == _plan_bytes(ref.best_plan)
        assert [_plan_bytes(p) for p in vec.top_plans] \
            == [_plan_bytes(p) for p in ref.top_plans]
        assert plan_hash(vec.best_plan) == plan_hash(ref.best_plan)
        assert vec.predicted_iteration_time == ref.predicted_iteration_time
        assert vec.predicted_throughput == ref.predicted_throughput
        # the engine may not change how much work is *counted*
        assert vec.configurations_evaluated == ref.configurations_evaluated
        assert vec.stats.configs_prefiltered == ref.stats.configs_prefiltered

    def test_warm_memo_replays_into_interpreted_search(self, monkeypatch):
        # memo keys name the subproblem, not how it was evaluated: a warm
        # memo serves every menu of an interpreter-swapped search, which
        # is why the differential above gives each side a fresh memo
        tuner = _make_tuner(make_cluster("L4", 1, 2), "3d")
        memo = MenuMemo()
        vec = tuner.search(16, memo=memo)
        monkeypatch.setattr(CompiledExpr, "__call__", CompiledExpr.interpret)
        ref = tuner.search(16, memo=memo)
        assert ref.stats.memo_misses == 0
        assert ref.stats.memo_hits == vec.stats.memo_misses \
            + vec.stats.memo_hits
        assert ref.configurations_evaluated == vec.configurations_evaluated
        assert _plan_bytes(ref.best_plan) == _plan_bytes(vec.best_plan)
