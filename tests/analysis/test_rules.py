"""Each rule family fires on a violating fixture, stays silent on a clean one."""

from repro.analysis import CheckConfig, Project, check_project

#: scope every path-sensitive rule at the fixture tree
FIXTURE_CONFIG = CheckConfig(
    determinism_paths=("pkg/det.py",),
    async_paths=("pkg/svc/",),
)


def run_on(sources, rule, config=FIXTURE_CONFIG):
    project = Project.from_sources(sources, config=config)
    return check_project(project, rules=[rule]).findings


# -- determinism -----------------------------------------------------------

DET_VIOLATION = """\
import json
import time
import uuid
import random
from dataclasses import dataclass, field

@dataclass
class Record:
    created: float = field(default_factory=time.time)

def fingerprint(payload):
    stamp = time.time()
    salt = uuid.uuid4().hex
    jitter = random.random()
    order = list({"b", "a"})
    for item in {"x", "y"}:
        pass
    return json.dumps(payload) + str((stamp, salt, jitter, order))
"""

DET_CLEAN = """\
import json
import random

def fingerprint(payload):
    rng = random.Random(17)
    order = sorted({"b", "a"})
    return json.dumps(payload, sort_keys=True) + str((rng.random(), order))
"""


def test_determinism_fires_on_violations():
    findings = run_on({"pkg/det.py": DET_VIOLATION}, "determinism")
    messages = "\n".join(f.message for f in findings)
    assert "time.time" in messages
    assert "uuid.uuid4" in messages
    assert "random.random" in messages
    assert "hash order" in messages  # list(set(...))
    assert "iteration over a set" in messages
    assert "sort_keys" in messages
    # the field(default_factory=time.time) reference is caught too
    assert any(f.line == 9 for f in findings if "time.time" in f.message)


def test_determinism_silent_on_clean_fixture():
    assert run_on({"pkg/det.py": DET_CLEAN}, "determinism") == ()


def test_determinism_scoped_to_configured_paths():
    # same violating source outside the declared path set: no findings
    assert run_on({"pkg/other.py": DET_VIOLATION}, "determinism") == ()


# -- async-safety ----------------------------------------------------------

ASYNC_VIOLATION = """\
import time

class Handler:
    async def handle(self):
        time.sleep(1)
        data = open("f.json").read()
        report = self.cache.load("key")
        return data, report
"""

ASYNC_CLEAN = """\
import asyncio

class Handler:
    async def handle(self, loop):
        await asyncio.sleep(1)
        # passing the blocking callable to the executor is the pattern
        record = await loop.run_in_executor(None, self.submit, "job")
        def sync_helper():
            return open("f.json").read()  # runs in the worker
        return record
"""


def test_async_safety_fires_on_blocking_calls():
    findings = run_on({"pkg/svc/h.py": ASYNC_VIOLATION}, "async-safety")
    messages = [f.message for f in findings]
    assert any("time.sleep" in m for m in messages)
    assert any("open" in m for m in messages)
    assert any("self.cache.load" in m for m in messages)


def test_async_safety_flags_every_daemon_entry_point():
    entry_points = ("submit", "submit_replan", "submit_campaign",
                    "get_job", "get_campaign", "cancel_job")
    source = "class Handler:\n    async def handle(self, job):\n" + "".join(
        f"        self.{name}(job)\n" for name in entry_points)
    findings = run_on({"pkg/svc/h.py": source}, "async-safety")
    assert [f.message for f in findings] == [
        f"blocking call self.{name}() inside 'async def handle'"
        for name in entry_points]
    assert "run_in_executor(None, self.submit_replan" in findings[1].hint


def test_async_safety_silent_on_executor_pattern():
    assert run_on({"pkg/svc/h.py": ASYNC_CLEAN}, "async-safety") == ()


def test_async_safety_scoped_to_configured_paths():
    assert run_on({"pkg/web.py": ASYNC_VIOLATION}, "async-safety") == ()


# -- lock-discipline -------------------------------------------------------

LOCK_VIOLATION = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def get(self, key):
        return self._items.get(key)

    def put(self, key, value):
        with self._lock:
            self._items[key] = value
"""

LOCK_CLEAN = LOCK_VIOLATION.replace(
    "    def get(self, key):\n        return self._items.get(key)",
    "    def get(self, key):\n        with self._lock:\n"
    "            return self._items.get(key)")

LOCK_MODULE_VIOLATION = """\
import threading

_LOCK = threading.Lock()
_CACHE = {}

def put(key, value):
    _CACHE[key] = value
"""


def test_lock_discipline_fires_on_unlocked_access():
    findings = run_on({"pkg/reg.py": LOCK_VIOLATION}, "lock-discipline")
    assert len(findings) == 1
    assert "self._items" in findings[0].message
    assert "Registry.get" in findings[0].message


def test_lock_discipline_silent_when_guarded():
    assert run_on({"pkg/reg.py": LOCK_CLEAN}, "lock-discipline") == ()


LOCKED_HELPER = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key, value):
        self._items[key] = value
        return self._size_locked()

    def _size_locked(self):
        return len(self._items)
"""


def test_lock_discipline_locked_helpers_run_under_callers_lock():
    # a *_locked body is guarded because every reference to it is
    assert run_on({"pkg/reg.py": LOCKED_HELPER}, "lock-discipline") == ()


def test_lock_discipline_flags_locked_helper_used_unlocked():
    source = LOCKED_HELPER + """
    def racy_put(self, key, value):
        return self._put_locked(key, value)

    def deferred(self, pool):
        # handing the helper to another thread drops the lock too
        pool.submit(self._size_locked)
"""
    findings = run_on({"pkg/reg.py": source}, "lock-discipline")
    assert [(f.line, f.message) for f in findings] == [
        (20, "self._put_locked (runs under the caller's lock) accessed "
             "outside 'with <lock>' in Registry.racy_put"),
        (24, "self._size_locked (runs under the caller's lock) accessed "
             "outside 'with <lock>' in Registry.deferred")]


def test_lock_discipline_module_level_state():
    findings = run_on({"pkg/mod.py": LOCK_MODULE_VIOLATION},
                      "lock-discipline")
    assert len(findings) == 1
    assert "_CACHE" in findings[0].message


def test_lock_discipline_ignores_lockless_classes():
    source = """\
class Plain:
    def __init__(self):
        self._items = {}

    def get(self, key):
        return self._items.get(key)
"""
    assert run_on({"pkg/p.py": source}, "lock-discipline") == ()


def test_lock_discipline_dataclass_field_lock():
    source = """\
import threading
from dataclasses import dataclass, field

@dataclass
class Ledger:
    _lock: threading.Lock = field(default_factory=threading.Lock)
    counts: dict = field(default_factory=dict)

    def bump(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1
"""
    findings = run_on({"pkg/l.py": source}, "lock-discipline")
    assert findings and all("self.counts" in f.message for f in findings)


# -- cross-cutting ---------------------------------------------------------

def test_parse_error_is_reported_not_raised():
    findings = run_on({"pkg/bad.py": "def broken(:\n"}, "determinism")
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"


def test_findings_sorted_by_location():
    sources = {
        "pkg/det.py": DET_VIOLATION,
        "pkg/a.py": "def broken(:\n",
    }
    findings = run_on(sources, "determinism")
    assert [f.path for f in findings] == sorted(f.path for f in findings)
