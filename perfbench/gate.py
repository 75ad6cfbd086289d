"""Correctness gate: every served answer is re-checked outside the clock.

A solve reply is rebuilt on the instance the client itself sent and run
through ``verify_schedule``, the independent oracle.  Every event batch
must be acknowledged in full, and a closed session's realized cost must
equal, bit for bit, an offline ``Simulator`` replay of its trace.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from busytime import Instance
from busytime.core.objectives import get_cost_model
from busytime.core.schedule import Machine, Schedule, verify_schedule
from busytime.extensions.dynamic import Simulator
from busytime.service.sessions import session_policy

from .workloads import SessionSpec


class GateError(AssertionError):
    """A served answer failed a correctness check."""


def served_schedule(reply: Mapping[str, object], instance: Instance) -> Schedule:
    """The schedule of a ``POST /solve`` reply, rebuilt on ``instance``.

    Only the machine partition is taken from the reply; every job comes
    from the client's own instance, so a reply that moved, dropped or
    invented a job cannot pass the oracle.
    """
    if reply.get("status") != "done":
        raise GateError(f"job not done: {reply.get('status')} {reply.get('error')}")
    doc = reply["report"]["schedule"]  # type: ignore[index]
    if doc.get("placements"):
        raise GateError("rigid request answered with moved jobs")
    by_id = {job.id: job for job in instance.jobs}
    machines = []
    for row in doc["machines"]:
        try:
            jobs = tuple(by_id[int(job_id)] for job_id in row["job_ids"])
        except KeyError as exc:
            raise GateError(f"reply schedules unknown job {exc.args[0]}") from None
        machines.append(Machine(index=int(row["index"]), jobs=jobs))
    schedule = Schedule(instance=instance, machines=tuple(machines))
    try:
        verify_schedule(schedule)
    except (ValueError, RuntimeError) as exc:
        raise GateError(f"oracle rejected the served schedule: {exc}") from None
    if schedule.total_busy_time != float(doc["total_busy_time"]):
        raise GateError(
            f"reported busy time {doc['total_busy_time']} != "
            f"recomputed {schedule.total_busy_time}"
        )
    return schedule


def check_solve(raw: bytes, instance: Instance, expected_cost: Optional[float] = None) -> float:
    """Gate one raw reply; returns its verified busy time.

    ``expected_cost`` is the exact cost a cache hit must reproduce: the
    busy time of the cold solve of the same canonical instance.
    """
    try:
        reply = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise GateError(f"reply is not JSON: {exc}") from None
    cost = served_schedule(reply, instance).total_busy_time
    if expected_cost is not None and cost != expected_cost:
        raise GateError(f"cache hit costs {cost}, its cold solve cost {expected_cost}")
    return cost


def check_ack(raw: bytes, spec: SessionSpec, offset: int, count: int) -> None:
    """An event-batch ack must account for exactly the events sent."""
    try:
        ack = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise GateError(f"ack is not JSON: {exc}") from None
    if ack.get("session_id") != spec.session_id:
        raise GateError(f"ack for {ack.get('session_id')}, sent to {spec.session_id}")
    if ack.get("accepted") != count or ack.get("applied") != offset + count:
        raise GateError(
            f"ack {ack.get('accepted')}/{ack.get('applied')} for "
            f"{count} events at offset {offset}"
        )


def check_close(raw: bytes, spec: SessionSpec) -> float:
    """A closed session must equal its offline replay bit for bit."""
    try:
        final = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise GateError(f"close reply is not JSON: {exc}") from None
    if final.get("applied") != len(spec.rows) or not final.get("closed"):
        raise GateError(
            f"closed session reports {final.get('applied')} of {len(spec.rows)} events"
        )
    policy = session_policy(spec.policy, spec.period, spec.budget, "first_fit", "first_fit")
    offline = Simulator(
        spec.trace, policy, oracle_check_every=None, compare_offline=False
    ).run().realized_cost
    if final.get("realized_cost") != offline:
        raise GateError(
            f"session {spec.session_id} realized {final.get('realized_cost')}, "
            f"offline replay {offline}"
        )
    return offline


def lower_bound(instance: Instance) -> float:
    """The engine's default-model lower bound of ``instance``."""
    return get_cost_model("busy_time").lower_bound(instance)
