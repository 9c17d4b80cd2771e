"""Tests for campaign aggregation: counters, speedups, round-trips."""

import re

import pytest

from repro.campaigns import CampaignReport, aggregate, run_campaign
from repro.campaigns.report import format_table, format_throughput_rows
from repro.core.schema import DecodeError


class TestAggregation:
    def test_counters_and_table(self, stub_spec, stub_a, stub_b):
        report = run_campaign(stub_spec)
        assert report.complete
        assert report.counters["solved"] == 4
        # camp-b returns 1.5x camp-a's throughput on every cell
        speedups = report.speedups(reference="camp-a")
        for row in speedups.values():
            assert row["camp-b"] == pytest.approx(1.5)
            assert row["camp-a"] == pytest.approx(1.0)
        table = report.table()
        assert "camp-a (samp/s | x)" in table
        assert "1.50x" in table

    def test_default_reference_is_first_solver(self, stub_spec, stub_a,
                                               stub_b):
        report = run_campaign(stub_spec)
        assert report.reference() == "camp-a"
        assert run_campaign(
            stub_spec.with_(reference="camp-b")).reference() == "camp-b"

    def test_missing_reference_raises_clear_error(self, stub_spec, stub_a,
                                                  stub_b):
        report = run_campaign(stub_spec)
        with pytest.raises(ValueError, match="available"):
            report.speedups(reference="megatron")

    def test_missing_reference_names_it_and_the_solvers(self, stub_spec,
                                                        stub_a, stub_b):
        report = run_campaign(stub_spec)
        with pytest.raises(ValueError) as err:
            report.speedups(reference="deepspeed")
        message = str(err.value)
        assert "deepspeed" in message
        assert "camp-a" in message and "camp-b" in message

    def test_one_row_per_workload(self, stub_spec, stub_a, stub_b):
        report = run_campaign(stub_spec)
        workloads = {cell.workload for cell in stub_spec.expand()}
        assert len(workloads) == 2
        assert set(report.results()) == workloads
        assert set(report.speedups()) == workloads
        for row in report.results().values():
            assert set(row) == {"camp-a", "camp-b"}

    def test_failed_reference_gives_infinite_speedup(self, stub_spec,
                                                     stub_a, stub_b):
        bad = stub_spec.expand()[0]
        stub_a.fail_on.add(bad.job.fingerprint())
        row = run_campaign(stub_spec).speedups()[bad.workload]
        assert row["camp-a"] == 0.0
        assert row["camp-b"] == float("inf")

    def test_json_round_trip(self, stub_spec, stub_a, stub_b):
        report = run_campaign(stub_spec)
        loaded = CampaignReport.from_json(report.to_json())
        assert loaded.to_json() == report.to_json()
        assert loaded.counters == report.counters
        assert loaded.spec == stub_spec

    @pytest.mark.parametrize("text, message", [
        ('{"cells": []}', "required field 'name' is missing"),
        ('{"name": "x", "cells": [{"cell_id": "a", "solver": "s"}]}',
         "campaign report.cells[0]: required field 'workload' is missing"),
        ('{"name": "x", "cells": "oops"}', "'cells' must be a list"),
        ('[]', "campaign report must be a JSON object"),
    ], ids=["no-name", "cell-no-workload", "cells-not-list", "not-object"])
    def test_malformed_report_raises_decode_error(self, text, message):
        # a report without a name once raised a bare KeyError
        with pytest.raises(DecodeError, match=re.escape(message)):
            CampaignReport.from_json(text)

    def test_failures_render_as_zero(self, stub_spec, stub_a, stub_b):
        bad = stub_spec.expand()[0]
        stub_a.fail_on.add(bad.job.fingerprint())
        report = run_campaign(stub_spec)
        assert report.results()[bad.workload]["camp-a"] == 0.0
        assert "OOM/none" in report.table()

    def test_aggregate_of_empty_records(self):
        report = aggregate(None, [])
        assert report.counters["cells"] == 0
        assert report.reference() == ""
        assert "0/0" in report.describe()


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_throughput_rows_normalization(self):
        text = format_throughput_rows(
            "T", {"w1": {"megatron": 2.0, "mist": 3.0}}, "megatron"
        )
        assert "1.50x" in text
        assert "1.00x" in text

    def test_throughput_rows_oom_marker(self):
        text = format_throughput_rows(
            "T", {"w1": {"megatron": 2.0, "mist": 0.0}}, "megatron"
        )
        assert "OOM" in text
