"""Each rule family fires on a violating fixture, stays silent on a clean one."""

from repro.analysis import CheckConfig, Project, check_project

#: scope every path-sensitive rule at the fixture tree
FIXTURE_CONFIG = CheckConfig(
    determinism_paths=("pkg/det.py",),
    async_paths=("pkg/svc/",),
    registry_allowed_paths=("pkg/registry.py", "tests/"),
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


# -- serialization ---------------------------------------------------------

SER_MISSING_FROM_DICT = """\
from dataclasses import dataclass

@dataclass
class Snapshot:
    a: int = 0

    def to_dict(self):
        return {"a": self.a}
"""

SER_KEY_DRIFT = """\
from dataclasses import dataclass, field

@dataclass
class Spec:
    a: int = 0
    b: int = 0
    hidden: object = field(default=None, repr=False)

    def to_dict(self):
        out = {"a": self.a}
        out["extra"] = 1
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(a=data["a"], b=data["renamed"])
"""

SER_CLEAN = """\
from dataclasses import dataclass, field

@dataclass
class Spec:
    a: int = 0
    b: int = 0
    hidden: object = field(default=None, repr=False)

    def to_dict(self):
        return {"a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, data):
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)
"""


def test_serialization_missing_from_dict():
    findings = run_on({"pkg/ser.py": SER_MISSING_FROM_DICT}, "serialization")
    assert len(findings) == 1
    assert "no from_dict" in findings[0].message


def test_serialization_key_and_field_drift():
    findings = run_on({"pkg/ser.py": SER_KEY_DRIFT}, "serialization")
    messages = [f.message for f in findings]
    # emitted but never read back
    assert any("'extra'" in m and "never reads" in m for m in messages)
    # required but never emitted
    assert any("'renamed'" in m and "never emits" in m for m in messages)
    # dataclass field dropped by to_dict
    assert any("Spec.b" in m and "never emitted" in m for m in messages)
    # runtime-only (repr=False) field is exempt
    assert not any("hidden" in m for m in messages)


def test_serialization_silent_on_clean_wildcard_from_dict():
    assert run_on({"pkg/ser.py": SER_CLEAN}, "serialization") == ()


def test_serialization_skips_delegating_to_dict():
    source = """\
from dataclasses import dataclass

def spec_to_dict(spec):
    return {"a": spec.a}

@dataclass
class Spec:
    a: int = 0

    def to_dict(self):
        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(a=data["a"])
"""
    assert run_on({"pkg/ser.py": source}, "serialization") == ()


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


# -- registry-discipline ---------------------------------------------------

REGISTRY_SOURCES = {
    "pkg/registry.py": """\
def register_solver(name):
    def deco(cls):
        return cls
    return deco
""",
    "pkg/impls.py": """\
from pkg.registry import register_solver

@register_solver("alpha")
class AlphaSolver:
    pass
""",
    "pkg/caller.py": """\
from pkg.impls import AlphaSolver

def run():
    return AlphaSolver()
""",
}


def test_registry_discipline_fires_on_direct_import():
    findings = run_on(REGISTRY_SOURCES, "registry-discipline")
    assert len(findings) == 1
    assert findings[0].path == "pkg/caller.py"
    assert "AlphaSolver" in findings[0].message


def test_registry_discipline_allows_configured_paths():
    sources = dict(REGISTRY_SOURCES)
    sources["tests/test_alpha.py"] = sources.pop("pkg/caller.py")
    assert run_on(sources, "registry-discipline") == ()


def test_registry_discipline_allows_defining_module():
    sources = {k: v for k, v in REGISTRY_SOURCES.items()
               if k != "pkg/caller.py"}
    assert run_on(sources, "registry-discipline") == ()


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
