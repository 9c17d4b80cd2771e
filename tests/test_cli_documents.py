"""User-named JSON documents that fail their field table exit 2 with
one ``repro <command>: error:`` line naming the file and the field."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

_TUNE = ["--model", "gpt3-1.3b", "--global-batch", "8", "--scale", "smoke"]


def _one_error_line(capsys, command: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    assert lines[0].startswith(f"repro {command}: error: "), lines[0]
    return lines[0]


@pytest.mark.parametrize("cluster", [
    {"gpu": 5, "gpus_per_node": 2},
    {"groups": [{"gpu": "L4", "gpus_per_node": 2},
                {"gpu": 5, "gpus_per_node": 2}]},
], ids=["flat", "group"])
@pytest.mark.parametrize("command", ["tune", "cluster"])
def test_non_string_gpu_exits_two(capsys, tmp_path, cluster, command):
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(cluster))
    argv = ([command, str(path)] if command == "cluster"
            else [command, *_TUNE, "--cluster", str(path)])
    assert main(argv) == 2
    line = _one_error_line(capsys, command)
    assert str(path) in line
    assert "'gpu' must be a string, got 5" in line


def test_cluster_typo_exits_two(capsys, tmp_path):
    # "num_node" once planned a 1-node cluster without a word
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({"gpu": "L4", "num_node": 4,
                                "gpus_per_node": 2}))
    assert main(["tune", *_TUNE, "--cluster", str(path)]) == 2
    assert "num_node" in _one_error_line(capsys, "tune")


@pytest.mark.parametrize("plan, field", [
    ({"gacc": 1.7}, "gacc"), ({"global_batch": "8"}, "global_batch"),
    ({"stages": "x"}, "stages"),
], ids=["float-gacc", "string-batch", "string-stages"])
def test_malformed_incumbent_exits_two(capsys, tmp_path, plan, field):
    from repro.api import TuningJob, solve

    job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                    scale="smoke", interference="none")
    report = solve(job, "megatron").to_dict()
    report["plan"].update(plan)
    incumbent = tmp_path / "report.json"
    incumbent.write_text(json.dumps(report))
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"ops": [{"op": "degrade_link",
                                          "factor": 0.5}]}))
    assert main(["replan", *_TUNE, "--gpus", "2", "--delta", str(delta),
                 "--incumbent", str(incumbent)]) == 2
    line = _one_error_line(capsys, "replan")
    assert str(incumbent) in line and f"'{field}'" in line
