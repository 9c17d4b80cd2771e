"""``JobRecord``'s terminal event and ``InFlight``'s cancellation read."""

from __future__ import annotations

import pytest

from repro.api import SolveReport
from repro.service.state import InFlight, JobRecord

#: each terminal transition, as a call on a record
TRANSITIONS = {
    "complete": lambda r: r.complete(SolveReport(solver="stub", job=r.job)),
    "fail": lambda r: r.fail("boom"),
    "cancel": lambda r: r.cancel(),
}
STATUS = {"complete": "done", "fail": "failed", "cancel": "cancelled"}


def _record(job) -> JobRecord:
    return JobRecord(job=job, solver="stub", fingerprint=job.fingerprint())


@pytest.mark.parametrize("first", sorted(TRANSITIONS))
def test_terminal_event_set_by_the_winning_transition(job, first):
    record = _record(job)
    record.mark_running()
    assert not record.terminal.is_set()
    assert TRANSITIONS[first](record) is True
    assert record.terminal.is_set()
    assert record.status == STATUS[first]
    for other in sorted(set(TRANSITIONS) - {first}):
        assert TRANSITIONS[other](record) is False
    assert record.status == STATUS[first]


def _flight(job, size: int) -> tuple[InFlight, list[JobRecord]]:
    records = [_record(job) for _ in range(size)]
    flight = InFlight(("stub", job.fingerprint()), records[0])
    for record in records[1:]:
        flight.attach(record)
    return flight, records


def test_flight_cancelled_once_every_record_is(job):
    flight, (first, second) = _flight(job, 2)
    first.cancel()
    assert not flight.cancelled()
    second.cancel()
    assert flight.cancelled()


def test_a_failed_record_is_not_a_cancellation(job):
    flight, (first, second) = _flight(job, 2)
    first.cancel()
    second.fail("boom")  # terminal, but not a cancellation
    assert not flight.cancelled()
