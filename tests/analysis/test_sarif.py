"""SARIF 2.1.0 output: schema validity and content mapping."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import CheckConfig, Project, check_project, to_sarif

jsonschema = pytest.importorskip("jsonschema")

SRC = Path(__file__).resolve().parents[2] / "src"

#: A faithful subset of the official SARIF 2.1.0 schema (oasis-tcs/
#: sarif-spec) covering everything ``to_sarif`` emits. Kept inline so
#: the test needs no network; ``additionalProperties`` stays permissive
#: exactly where the full schema is, and required fields / enums match
#: the spec.
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri",
                                    },
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "fullDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {"enum": [
                                                            "none", "note",
                                                            "warning",
                                                            "error",
                                                        ]},
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "columnKind": {"enum": [
                        "utf16CodeUnits", "unicodeCodePoints"]},
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0},
                                "level": {"enum": [
                                    "none", "note", "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"},
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {"type":
                                                                    "string"},
                                                            "uriBaseId": {
                                                                "type":
                                                                "string"},
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

VIOLATION = """\
import time

def fingerprint(payload):
    return hash(payload)

def build_key(job):
    stamp = time.time()  # repro: allow[determinism] only the flow is reported
    return fingerprint(stamp)
"""


def result_with_findings():
    config = CheckConfig(determinism_paths=("pkg/fp.py",))
    project = Project.from_sources({"pkg/fp.py": VIOLATION}, config=config)
    return check_project(project, rules=["determinism"])


def test_sarif_with_findings_validates_against_schema():
    log = to_sarif(result_with_findings())
    jsonschema.validate(log, SARIF_SCHEMA)
    (run,) = log["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "determinism"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "pkg/fp.py"
    assert location["region"]["startLine"] == 8
    # ruleIndex points at the matching descriptor
    rules = run["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "determinism"


def test_sarif_clean_run_still_lists_rules():
    config = CheckConfig(determinism_paths=("pkg/fp.py",))
    project = Project.from_sources(
        {"pkg/fp.py": "def f():\n    return 1\n"}, config=config)
    log = to_sarif(check_project(project, rules=["determinism"]))
    jsonschema.validate(log, SARIF_SCHEMA)
    assert log["runs"][0]["results"] == []
    assert [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]] \
        == ["determinism"]


def test_sarif_round_trips_as_json():
    log = to_sarif(result_with_findings())
    assert json.loads(json.dumps(log, sort_keys=True)) == log


def test_cli_format_sarif_end_to_end(tmp_path):
    target = tmp_path / "fp.py"
    target.write_text("def f():\n    return 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--format", "sarif",
         str(target)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    log = json.loads(proc.stdout)
    jsonschema.validate(log, SARIF_SCHEMA)
    assert log["version"] == "2.1.0"
