"""Suppression syntax: allow-comments silence findings, stale allows surface."""

from repro.analysis import (
    UNUSED_RULE_ID,
    CheckConfig,
    Project,
    check_project,
)

CONFIG = CheckConfig(determinism_paths=("pkg/det.py",),
                     async_paths=("pkg/svc/",))


def run(source, rules=None, path="pkg/det.py"):
    project = Project.from_sources({path: source}, config=CONFIG)
    return check_project(project, rules=rules).findings


def test_trailing_suppression_silences_own_line():
    source = (
        "import time\n"
        "NOW = time.time()  # repro: allow[determinism] display only\n"
    )
    assert run(source, rules=["determinism"]) == ()


def test_comment_line_suppression_guards_next_line():
    source = (
        "import time\n"
        "# repro: allow[determinism] display only\n"
        "NOW = time.time()\n"
    )
    assert run(source, rules=["determinism"]) == ()


def test_unsuppressed_line_still_fires():
    source = (
        "import time\n"
        "NOW = time.time()  # repro: allow[determinism] display only\n"
        "LATER = time.time()\n"
    )
    findings = run(source, rules=["determinism"])
    assert len(findings) == 1
    assert findings[0].line == 3


def test_comma_separated_rule_ids():
    source = (
        "import time\n"
        "# repro: allow[determinism, lock-discipline] both\n"
        "NOW = time.time()\n"
    )
    findings = run(source, rules=["determinism", "lock-discipline"])
    # determinism is used; the lock-discipline half is stale
    assert [f.rule for f in findings] == [UNUSED_RULE_ID]
    assert "lock-discipline" in findings[0].message


def test_unused_suppression_reported():
    source = (
        "import json\n"
        "DATA = json.dumps({}, sort_keys=True)  "
        "# repro: allow[determinism] stale\n"
    )
    findings = run(source, rules=["determinism"])
    assert len(findings) == 1
    assert findings[0].rule == UNUSED_RULE_ID
    assert findings[0].line == 2


def test_unused_suppression_not_reported_for_inactive_rule():
    # --rule filtering must not flag allows of rules that did not run
    source = (
        "import time\n"
        "NOW = time.time()  # repro: allow[determinism] display only\n"
    )
    assert run(source, rules=["lock-discipline"]) == ()


def test_allow_naming_no_registered_rule_is_reported():
    # a typo or a deleted rule id suppresses nothing, whatever ran
    source = (
        "import time\n"
        "NOW = 1  # repro: allow[no-such-rule] typo\n"
        "X = 2  # repro: allow[serialization] rule since deleted\n"
    )
    for rules in (None, ["determinism"]):
        findings = run(source, rules=rules)
        assert [(f.rule, f.line) for f in findings] == [
            (UNUSED_RULE_ID, 2), (UNUSED_RULE_ID, 3)]
        assert "allow[no-such-rule]" in findings[0].message
        assert "allow[serialization]" in findings[1].message


def test_unused_suppression_cannot_be_suppressed():
    source = (
        "import json\n"
        "# repro: allow[unused-suppression] nice try\n"
        "DATA = json.dumps({}, sort_keys=True)  "
        "# repro: allow[determinism] stale\n"
    )
    findings = run(source, rules=["determinism"])
    rules = sorted(f.rule for f in findings)
    # both the stale determinism allow AND the allow[unused-suppression]
    # itself are reported
    assert rules == [UNUSED_RULE_ID, UNUSED_RULE_ID]


def test_suppression_inside_string_literal_is_ignored():
    source = (
        "import time\n"
        'DOC = "# repro: allow[determinism] not a comment"\n'
        "NOW = time.time()\n"
    )
    findings = run(source, rules=["determinism"])
    assert [f.rule for f in findings] == ["determinism"]
