"""Element definitions and taint transfer functions."""

import ast

from repro.analysis import (
    TaintAnalysis,
    TaintSource,
    TaintSpec,
    build_cfg,
    iter_functions,
)
from repro.analysis.dataflow import element_defs


def cfg_of(source, name=None):
    tree = ast.parse(source)
    funcs = dict(iter_functions(tree))
    if name is None:
        name = next(iter(funcs))
    return build_cfg(funcs[name], name)


SPEC = TaintSpec(
    call_sources={"time.time": ("wall-clock", "time.time")},
    ref_sources={"time.time": ("wall-clock", "time.time")},
    prefix_sources={"random.": ("entropy", "random.*")},
    sanitizers={"sorted": frozenset({"hash-order"}),
                "scrub": "*"},
)


# -- element-level defs ---------------------------------------------------

def test_element_defs_cover_binding_forms():
    mod = ast.parse(
        "import os as sys_os\n"
        "from json import dumps\n"
        "a, (b, *c) = x\n"
        "d: int = 1\n"
        "e += 1\n"
        "f = (g := 2)\n")
    kinds = {}
    for stmt in mod.body:
        for definition in element_defs(stmt):
            kinds[definition.name] = definition.kind
    assert kinds == {
        "sys_os": "import", "dumps": "import",
        "a": "assign", "b": "assign", "c": "assign",
        "d": "ann", "e": "aug", "f": "assign", "g": "walrus",
    }


# -- taint ------------------------------------------------------------------

def taint_of(source, name=None, **kwargs):
    return TaintAnalysis(cfg_of(source, name), SPEC, **kwargs)


def test_taint_flows_through_assignment_chain():
    analysis = taint_of(
        "def f():\n"
        "    stamp = time.time()\n"
        "    salted = stamp + 1\n"
        "    return salted\n")
    assert {t.kind for t in analysis.return_taint} == {"wall-clock"}


def test_taint_strong_update_clears():
    analysis = taint_of(
        "def f():\n"
        "    x = time.time()\n"
        "    x = 0\n"
        "    return x\n")
    assert analysis.return_taint == frozenset()


def test_sorted_launders_hash_order_but_not_wall_clock():
    analysis = taint_of(
        "def f():\n"
        "    order = sorted({'a', 'b'})\n"
        "    stamp = sorted([time.time()])\n"
        "    return order, stamp\n")
    kinds = {t.kind for t in analysis.return_taint}
    assert kinds == {"wall-clock"}  # hash-order laundered, clock not


def test_star_sanitizer_clears_everything():
    analysis = taint_of(
        "def f():\n"
        "    x = scrub(time.time())\n"
        "    return x\n")
    assert analysis.return_taint == frozenset()


def test_set_iteration_and_cast_taint_hash_order():
    analysis = taint_of(
        "def f():\n"
        "    out = []\n"
        "    for item in {'x', 'y'}:\n"
        "        out.append(item)\n"
        "    order = list({'a'})\n"
        "    return out, order\n")
    kinds = {t.kind for t in analysis.return_taint}
    assert kinds == {"hash-order"}


def test_branch_join_unions_taint():
    analysis = taint_of(
        "def f(flag):\n"
        "    if flag:\n"
        "        x = time.time()\n"
        "    else:\n"
        "        x = random.random()\n"
        "    return x\n")
    assert {t.kind for t in analysis.return_taint} == \
        {"wall-clock", "entropy"}


def test_loop_carried_taint_reaches_return():
    analysis = taint_of(
        "def f(n):\n"
        "    x = 0\n"
        "    while n:\n"
        "        x = x + time.time()\n"
        "    return x\n")
    assert {t.kind for t in analysis.return_taint} == {"wall-clock"}


def test_param_taints_seed_entry_state():
    analysis = taint_of(
        "def f(key):\n"
        "    derived = key\n"
        "    return derived\n",
        param_taints={"key": frozenset(
            {TaintSource("env", "caller", 1)})})
    assert {t.kind for t in analysis.return_taint} == {"env"}


def test_call_summary_hook_splices_callee_taint():
    def summary(node):
        return frozenset({TaintSource("wall-clock", "helper()",
                                      node.lineno)})

    analysis = taint_of(
        "def f():\n"
        "    x = helper()\n"
        "    return x\n",
        call_summary=summary)
    assert {t.description for t in analysis.return_taint} == {"helper()"}


def test_container_weak_update_keeps_taint():
    analysis = taint_of(
        "def f():\n"
        "    payload = {}\n"
        "    payload['ts'] = time.time()\n"
        "    return payload\n")
    assert {t.kind for t in analysis.return_taint} == {"wall-clock"}
