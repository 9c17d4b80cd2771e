"""Rule registry semantics, the ``repro check`` CLI, and the acceptance gate."""

import json

import pytest

from repro.analysis import (
    Finding,
    Project,
    RuleNotFoundError,
    check_project,
    get_rule,
    register_rule,
    rule_names,
    rule_registry,
    run_check,
)
from repro.analysis.registry import _REGISTRY
from repro.cli import main

BUILTIN_RULES = ("async-safety", "determinism", "exception-flow",
                 "fingerprint-taint", "lock-discipline", "lock-order",
                 "registry-discipline", "serialization")


def test_builtin_rules_registered():
    assert set(BUILTIN_RULES) <= set(rule_names())


def test_get_rule_instantiates_and_unknown_raises():
    rule = get_rule("determinism")
    assert rule.rule_id == "determinism"
    with pytest.raises(RuleNotFoundError):
        get_rule("no-such-rule")


def test_register_rule_duplicate_rejected_and_overwrite():
    @register_rule("tmp-rule")
    class TmpRule:
        def check(self, project):
            return []

    try:
        with pytest.raises(ValueError):
            @register_rule("tmp-rule")
            class OtherRule:
                def check(self, project):
                    return []

        @register_rule("tmp-rule", overwrite=True)
        class ReplacementRule:
            def check(self, project):
                return []

        assert rule_registry()["tmp-rule"] is ReplacementRule
    finally:
        _REGISTRY.pop("tmp-rule", None)


def test_custom_rule_runs_through_check_project():
    @register_rule("tmp-every-module")
    class EveryModuleRule:
        def check(self, project):
            return [Finding(rule="tmp-every-module", path=m.path, line=1,
                            message="seen") for m in project.modules]

    try:
        project = Project.from_sources({"a.py": "x = 1\n"})
        result = check_project(project, rules=["tmp-every-module"])
        assert [f.rule for f in result.findings] == ["tmp-every-module"]
    finally:
        _REGISTRY.pop("tmp-every-module", None)


def test_finding_round_trip_and_format():
    finding = Finding(rule="determinism", path="a.py", line=3,
                      message="msg", hint="fix it")
    assert Finding.from_dict(finding.to_dict()) == finding
    text = finding.format()
    assert "a.py:3" in text and "[determinism]" in text and "fix it" in text


# -- CLI -------------------------------------------------------------------

def test_cli_check_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("def f():\n    return 1\n")
    assert main(["check", str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_check_findings_exit_one(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class S:\n"
        "    a: int = 0\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    )
    assert main(["check", str(target)]) == 1
    out = capsys.readouterr().out
    assert "[serialization]" in out and "no from_dict" in out


def test_cli_check_rule_filter_and_json(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class S:\n"
        "    a: int = 0\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    )
    # the violating rule filtered out: clean
    assert main(["check", "--rule", "determinism", str(target)]) == 0
    capsys.readouterr()
    # json format carries the structured findings
    assert main(["check", "--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "serialization"
    assert payload["findings"][0]["path"].endswith("bad.py")


def test_cli_check_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["check", "--rule", "nope", str(tmp_path)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_check_unknown_rule_among_known_still_exits_two(tmp_path,
                                                            capsys):
    # a typo must not silently degrade to "run the rules that parsed"
    assert main(["check", "--rule", "determinism", "--rule", "determinsm",
                 str(tmp_path)]) == 2
    assert "determinsm" in capsys.readouterr().err


def test_cli_check_nonexistent_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["check", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err and "no-such-dir" in err


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_RULES:
        assert name in out


# -- acceptance: the shipped tree stays clean ------------------------------

def test_repro_check_src_is_clean():
    """Acceptance gate: ``repro check src/`` exits 0 on the shipped tree."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    result = run_check([src])
    assert result.findings == (), "\n" + "\n".join(
        f.format() for f in result.findings)
    assert result.module_count > 50
