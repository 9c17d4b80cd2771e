"""determinism rule, flow half: laundered nondeterminism reaching key sinks."""

from repro.analysis import CheckConfig, Project, check_project

CONFIG = CheckConfig(determinism_paths=("pkg/fp.py",))


def check(sources, config=CONFIG):
    project = Project.from_sources(sources, config=config)
    return check_project(project, rules=["determinism"]).findings


def run_on(sources, config=CONFIG):
    """The flow findings only (the pattern half is tested in test_rules)."""
    return tuple(f for f in check(sources, config)
                 if " flows into " in f.message)


#: the ISSUE's seeded fixture: wall-clock -> intermediate -> fingerprint
TAINT_VIOLATION = """\
import time

def fingerprint(payload):
    return hash(payload)

def build_key(job):
    stamp = time.time()
    salted = {"job": job, "at": stamp}
    return fingerprint(salted)
"""

#: identical flow shape, but the only taint is hash-order and the
#: intermediate passes through sorted(): laundered, no finding
TAINT_SANITIZED = """\
def fingerprint(payload):
    return hash(payload)

def build_key(job, tags):
    order = sorted(set(tags))
    salted = {"job": job, "tags": order}
    return fingerprint(salted)
"""

TAINT_CLEAN = """\
import json

def fingerprint(payload):
    return hash(payload)

def build_key(job):
    salted = {"job": job, "version": 3}
    return fingerprint(json.dumps(salted, sort_keys=True))
"""


def test_wall_clock_through_local_into_fingerprint_is_caught():
    findings = run_on({"pkg/fp.py": TAINT_VIOLATION})
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "determinism"
    assert "wall-clock" in finding.message
    assert "fingerprint" in finding.message
    assert finding.line == 9  # the fingerprint(salted) call site


def test_rule_reports_pattern_and_flow_findings_together():
    findings = check({"pkg/fp.py": TAINT_VIOLATION})
    assert [(f.line, "flows into" in f.message) for f in findings] == [
        (7, False),  # the time.time() reference itself
        (9, True),   # its flow into fingerprint()
    ]


#: invisible to a per-line matcher: the clock reference is suppressed
#: where it is read, then laundered through a local into a sink
LAUNDERED = """\
import json
import time

def snapshot(payload):
    stamp = time.time()  # repro: allow[determinism] measured elsewhere
    meta = {"at": stamp}
    return json.dumps({"payload": payload, "meta": meta}, sort_keys=True)
"""


def test_laundered_clock_into_json_dumps_is_caught():
    (finding,) = check({"pkg/fp.py": LAUNDERED})
    assert finding.line == 7
    assert "wall-clock" in finding.message
    assert "flows into json.dumps()" in finding.message


def test_sorted_sanitized_flow_is_not_caught():
    assert check({"pkg/fp.py": TAINT_SANITIZED}) == ()


def test_clean_fixture_passes():
    assert check({"pkg/fp.py": TAINT_CLEAN}) == ()


def test_unsanitized_set_order_is_caught():
    source = TAINT_SANITIZED.replace("sorted(set(tags))", "list(set(tags))")
    findings = run_on({"pkg/fp.py": source})
    assert len(findings) == 1
    assert "hash-order" in findings[0].message


def test_entropy_flow_through_fstring_is_caught():
    source = (
        "import uuid\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    run_id = uuid.uuid4().hex\n"
        "    label = f'{job}-{run_id}'\n"
        "    return fingerprint(label)\n")
    findings = run_on({"pkg/fp.py": source})
    assert len(findings) == 1
    assert "entropy" in findings[0].message


def test_one_level_call_graph_propagation():
    # the source is inside a helper in ANOTHER module; its return value
    # feeds the fingerprint call one level up
    helper = (
        "import time\n"
        "def now_ms():\n"
        "    return int(time.time() * 1000)\n")
    user = (
        "from pkg.helper import now_ms\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    stamp = now_ms()\n"
        "    return fingerprint((job, stamp))\n")
    findings = run_on({"pkg/helper.py": helper, "pkg/fp.py": user})
    assert len(findings) == 1
    assert "via now_ms()" in findings[0].message
    assert findings[0].path == "pkg/fp.py"


def test_json_dumps_and_memo_sinks():
    source = (
        "import json, time\n"
        "def serialize(payload, memo):\n"
        "    stamp = time.time()\n"
        "    blob = json.dumps({'at': stamp}, sort_keys=True)\n"
        "    memo.store(stamp, payload)\n"
        "    return blob\n")
    findings = run_on({"pkg/fp.py": source})
    sinks = {f.message.split("flows into ")[1] for f in findings}
    assert sinks == {"json.dumps()", "memo.store()"}


def test_suppression_silences_a_deliberate_flow():
    source = (
        "import time\n"
        "def fingerprint(payload):\n"
        "    return hash(payload)\n"
        "def build_key(job):\n"
        "    stamp = time.time()  # repro: allow[determinism] test fixture\n"
        "    return fingerprint(stamp)  "
        "# repro: allow[determinism] test fixture\n")
    project = Project.from_sources({"pkg/fp.py": source}, config=CONFIG)
    result = check_project(project, rules=["determinism"])
    assert result.findings == ()
    assert result.suppression_count == 2
