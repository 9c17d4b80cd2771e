"""Async-safety rule: nothing blocking on the service event loop.

The ``repro serve`` daemon runs one asyncio loop; every solver search,
cache read, and lock-taking state access is pushed to worker threads
via ``loop.run_in_executor``. One blocking call inside an ``async def``
stalls every connected client at once. Inside the configured path set
(:attr:`~repro.analysis.config.CheckConfig.async_paths`) this rule
flags *direct calls* in ``async def`` bodies to:

* ``time.sleep`` (use ``asyncio.sleep``);
* sync file I/O: ``open`` / ``io.open`` / ``Path.read_text`` /
  ``write_text`` / ``read_bytes`` / ``write_bytes``;
* sync sockets & subprocesses: ``socket.*``, ``subprocess.*``,
  ``urllib.request.urlopen``, ``requests.*``;
* a solver search: ``solve(...)`` or any ``*.solve(...)``;
* the daemon's entry points, which take the service lock (and the
  submissions read the plan cache under it): ``self.submit``,
  ``self.submit_replan``, ``self.submit_campaign``, ``self.get_job``,
  ``self.get_campaign``, ``self.cancel_job``; and ``self.cache.*``.

Passing a blocking callable *to* the executor
(``loop.run_in_executor(None, self.submit, job)``) is the sanctioned
pattern and is not a call, so it never fires. Bodies of nested sync
``def``\\ s are skipped — they run wherever they are invoked.
"""

from __future__ import annotations

import ast

from ..config import path_matches
from ..findings import Finding
from ..project import ModuleSource, Project, dotted_name
from ..registry import register_rule

__all__ = ["AsyncSafetyRule"]

_BLOCKING_EXACT = {
    "time.sleep": "use await asyncio.sleep(...)",
    "open": "do file I/O in a worker: await loop.run_in_executor(...)",
    "io.open": "do file I/O in a worker: await loop.run_in_executor(...)",
    "os.system": "use asyncio.create_subprocess_exec(...)",
    "socket.socket": "use asyncio streams (asyncio.open_connection)",
    "socket.create_connection": "use asyncio.open_connection(...)",
    "subprocess.run": "use asyncio.create_subprocess_exec(...)",
    "subprocess.call": "use asyncio.create_subprocess_exec(...)",
    "subprocess.check_call": "use asyncio.create_subprocess_exec(...)",
    "subprocess.check_output": "use asyncio.create_subprocess_exec(...)",
    "subprocess.Popen": "use asyncio.create_subprocess_exec(...)",
    "urllib.request.urlopen": "route through a worker thread",
    **{f"self.{name}": f"{name} takes the service lock: await "
                       f"loop.run_in_executor(None, self.{name}, ...)"
       for name in ("submit", "submit_replan", "submit_campaign",
                    "get_job", "get_campaign", "cancel_job")},
}

_BLOCKING_PREFIXES = {
    "requests.": "route HTTP through a worker thread",
    "self.cache.": "the plan cache is disk I/O: await "
                   "loop.run_in_executor(...)",
}

_BLOCKING_ATTRS = {
    "read_text": "file I/O blocks the loop: run it in an executor",
    "write_text": "file I/O blocks the loop: run it in an executor",
    "read_bytes": "file I/O blocks the loop: run it in an executor",
    "write_bytes": "file I/O blocks the loop: run it in an executor",
    "solve": "a solver search runs for seconds-to-minutes: hand it to "
             "the worker pool",
}


def _blocking_hint(node: ast.Call) -> "tuple[str, str] | None":
    name = dotted_name(node.func)
    if name is not None:
        if name in _BLOCKING_EXACT:
            return name, _BLOCKING_EXACT[name]
        for prefix, hint in _BLOCKING_PREFIXES.items():
            if name.startswith(prefix):
                return name, hint
    if name == "solve":
        return name, _BLOCKING_ATTRS["solve"]
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in _BLOCKING_ATTRS:
            return (name or f"*.{attr}"), _BLOCKING_ATTRS[attr]
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleSource):
        self.module = module
        self.findings: list[Finding] = []
        self._async_fn: str | None = None

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        outer, self._async_fn = self._async_fn, node.name
        self.generic_visit(node)
        self._async_fn = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a nested sync def runs wherever it is called (often inside
        # the executor) — its body is not event-loop code
        outer, self._async_fn = self._async_fn, None
        self.generic_visit(node)
        self._async_fn = outer

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_fn is not None:
            blocking = _blocking_hint(node)
            if blocking is not None:
                name, hint = blocking
                self.findings.append(Finding(
                    rule="async-safety", path=self.module.path,
                    line=node.lineno,
                    message=f"blocking call {name}() inside "
                            f"'async def {self._async_fn}'",
                    hint=hint,
                ))
        self.generic_visit(node)


@register_rule("async-safety")
class AsyncSafetyRule:
    """Flag blocking calls inside service ``async def`` bodies."""

    hint = "the event loop must only await; blocking work goes to workers"

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if not path_matches(module.path, project.config.async_paths):
                continue
            visitor = _Visitor(module)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        return findings
