"""Serialization of instances, schedules and optical traffic.

Plain-JSON (and CSV for job lists) round-trip support so instances and
results can be exchanged with other tools, checked into experiment
repositories, or fed to the command-line interface (:mod:`busytime.cli`).

The formats are deliberately boring:

``Instance`` JSON::

    {
      "format": "busytime-instance",
      "version": 2,
      "name": "...",
      "g": 3,
      "jobs": [{"id": 0, "start": 0.0, "end": 4.5, "weight": 1.0,
                "tag": "", "demand": 1}, ...]
    }

Version 2 added the per-job capacity ``demand`` (the [15] model; see
:mod:`busytime.core.objectives` for the matching cost-model axis).  Readers
accept version-1 documents — absent demands default to 1, which *is* the
version-1 semantics.

Version 3 added the flex extension: optional per-job ``release``/``deadline``
window fields, and optional instance-level ``site_capacity`` (int) and
``background`` (a :class:`~busytime.pricing.series.BackgroundLoad` document).
Writers stamp version 3 **only when a flex field is actually present** — a
window-free, uncapped instance serialises byte-identically to the version-2
writer, so archives, fingerprints and golden files of rigid instances are
unchanged.  Version-1/2 documents load with the defaults that *are* their
semantics (no windows, no cap, no background).

``Schedule`` version-3 documents additionally carry a ``placements`` table:
the placed ``[start, end]`` of every scheduled job whose interval differs
from its nominal one (window-aware algorithms slide jobs).  Loaders re-place
those jobs through :meth:`~busytime.core.intervals.Job.placed_at`, which
re-validates window containment and length preservation.

Schedule and report documents parse into flat columns first
(:func:`schedule_rows_from_dict`, :func:`solve_report_rows_from_dict`:
:class:`~busytime.core.schedule.ScheduleRows`, no job objects), which
:func:`~busytime.core.schedule.verify_schedule` checks once;
:func:`schedule_from_dict` and :func:`solve_report_from_dict` then build
the objects.  The service's result store stops at the checked columns.

``Schedule`` JSON adds the machine partition (job ids per machine) and the
producing algorithm; ``Traffic`` JSON stores the path length, the grooming
factor and the lightpath endpoint pairs.  CSV files have a header row
``id,start,end[,weight][,tag]``.

``SolveReport`` JSON (the engine's response object, see
:mod:`busytime.engine`) wraps a schedule document with the solve metadata::

    {
      "format": "busytime-solve-report",
      "version": 2,
      "algorithm": "auto",            # overall producing algorithm
      "policy": "best_ratio",         # selection policy used
      "portfolio": true,
      "objective": "busy_time",       # cost-model axis (version 2)
      "objective_value": 14.0,        # cost under the request's model
      "lower_bound": 12.5,            # model-priced bound on OPT
      "optimum": null,                # exact optimum when computed
      "proven_ratio": 2.0,            # certificate: cost <= ratio * OPT
      "budget_exhausted": false,
      "components": [                 # per-component decisions
        {"component": "...", "n": 3, "algorithm": "clique",
         "cost": 4.0, "proven_ratio": 2.0}, ...
      ],
      "tags": {},                     # request labels, echoed back
      "timings": {"schedule": 0.01, "lower_bound": 0.0, "total": 0.01},
      "schedule": { ... }             # busytime-schedule document
    }

``timings`` is wall-clock telemetry and therefore not reproducible; pass
``include_timings=False`` to :func:`solve_report_to_dict` to obtain the
deterministic part only (two solves of the same request then serialise to
byte-identical JSON).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .core.events import ARRIVE, DEPART, DynamicTrace, TraceEvent
from .core.instance import Instance, InstanceRows, as_rows, check_instance_fields
from .core.intervals import Interval, Job, check_interval_fields, check_job_fields
from .core.schedule import Schedule, ScheduleRows, as_schedule_rows, verify_schedule
from .engine.report import ComponentDecision, RaceCandidate, RaceOutcome, SolveReport
from .optical.lightpath import Lightpath, Traffic
from .pricing.series import BackgroundLoad
from .optical.network import PathNetwork

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "instance_rows_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_rows_from_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "solve_report_to_dict",
    "solve_report_rows_from_dict",
    "solve_report_from_dict",
    "save_solve_report",
    "load_solve_report",
    "traffic_to_dict",
    "traffic_from_dict",
    "save_traffic",
    "load_traffic",
    "trace_event_to_dict",
    "trace_event_from_dict",
    "dynamic_trace_to_dict",
    "dynamic_trace_from_dict",
    "save_dynamic_trace",
    "load_dynamic_trace",
    "jobs_to_csv",
    "jobs_from_csv",
]

_PathLike = Union[str, Path]

#: Format name -> document versions this reader understands.  Writers stamp
#: the current (last) version; readers reject anything else up front, so an
#: on-disk archive written by a future format revision fails loudly instead
#: of being half-parsed (the service result store relies on this).  Version 2
#: added the problem-model axis (per-job demands; objective + objective
#: value on reports); version-1 documents load with the defaults that *are*
#: the version-1 semantics (demand 1, objective "busy_time").
#: Solve-report version 3 added the optional portfolio-race outcome table
#: (telemetry, carried only when timings are); versions 1/2 load with
#: ``race=None``, which *is* their semantics (racing did not exist).
_SUPPORTED_VERSIONS: Dict[str, tuple] = {
    "busytime-instance": (1, 2, 3),
    "busytime-schedule": (1, 2, 3),
    "busytime-solve-report": (1, 2, 3),
    "busytime-traffic": (1,),
    "busytime-trace": (1,),
}


def _check_header(data: Mapping[str, object], fmt: str) -> None:
    """Validate the ``format``/``version`` header of a busytime document."""
    if not isinstance(data, Mapping):
        # Valid JSON but not an object (a list, a number): still a format
        # error, not an AttributeError out of `.get` below.
        raise ValueError(
            f"not a {fmt} document: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    if data.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    supported = _SUPPORTED_VERSIONS[fmt]
    version = data.get("version", 1)
    if version not in supported:
        raise ValueError(
            f"unsupported {fmt} version {version!r}; this reader understands "
            f"version(s) {', '.join(str(v) for v in supported)}"
        )


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _demand_from_field(value: object) -> int:
    """Parse a job's ``demand`` field, rejecting non-integral values.

    ``Job`` validates integrality; coercing ``2.5`` to ``2`` here would
    defeat that guard and silently alter the instance, so fractional —
    and non-finite (``json.loads`` accepts ``Infinity``/``NaN``) — demands
    fail loudly as ``ValueError`` like every other malformed document
    field (an ``OverflowError`` out of ``int(inf)`` would escape the
    frontend's 400 handler).
    """
    if isinstance(value, bool):
        # bool subclasses int; a client confusing a flag with a count must
        # fail loudly like Job's own validation does, not load as demand 1.
        raise ValueError(
            f"job demand must be an integral number of capacity units, "
            f"got {value!r}"
        )
    try:
        number = float(value)  # type: ignore[arg-type]
    except TypeError:
        # e.g. "demand": null — a malformed field, not an internal bug, so
        # it must surface as ValueError like the rest of the loader errors.
        raise ValueError(
            f"job demand must be an integral number of capacity units, "
            f"got {value!r}"
        ) from None
    if not math.isfinite(number) or number != int(number):
        raise ValueError(
            f"job demand must be an integral number of capacity units, "
            f"got {value!r}"
        )
    return int(number)


def _not_finite(name: str, value: object) -> ValueError:
    return ValueError(f"{name} must be a finite integer, got {value!r}")


def _int_field(value: object, name: str) -> int:
    """An integer field: a JSON integer, or a float with an integral value.

    Everything else is refused with a ``ValueError`` naming the field
    (``name``): a fractional value, ``bool``, a string, ``null`` and an
    infinity (``json.loads`` reads ``1e400`` as one).  ``int()`` would
    change the first three into another value (``2.5`` to 2, ``"7"`` to 7,
    ``true`` to 1) and raise ``OverflowError`` on the last, which callers
    that map ``ValueError`` to a refusal (the HTTP frontend's 400, the
    result store's miss) would not catch.
    """
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _not_finite(name, value)


def instance_to_dict(instance: Union[Instance, InstanceRows]) -> Dict[str, object]:
    """A JSON-serialisable dict describing the instance (or its rows).

    Stamps version 3 only when a flex field (window, site cap, background)
    is present; rigid instances serialise byte-identically to version 2.
    """
    rows = as_rows(instance)
    flex = rows.has_site_constraints
    jobs: List[Dict[str, object]] = [
        {"id": i, "start": s, "end": e, "weight": w, "tag": t, "demand": d}
        for i, s, e, w, t, d in zip(
            rows.ids, rows.starts, rows.ends, rows.weights, rows.tags, rows.demands
        )
    ]
    for key, column in (("release", rows.releases), ("deadline", rows.deadlines)):
        for row, value in zip(jobs, column or ()):
            if value is not None:
                row[key] = value
                flex = True
    doc: Dict[str, object] = {
        "format": "busytime-instance",
        "version": 3 if flex else 2,
        "name": rows.name,
        "g": rows.g,
        "jobs": jobs,
    }
    if rows.site_capacity is not None:
        doc["site_capacity"] = rows.site_capacity
    if rows.background is not None:
        doc["background"] = rows.background.to_dict()
    return doc


#: Integers this large round-trip through a float exactly, so
#: :func:`_demand_from_field` would return them unchanged.
_EXACT_INT = 2**53


def instance_rows_from_dict(data: Mapping[str, object]) -> InstanceRows:
    """Parse and validate an instance document into flat :class:`InstanceRows`.

    The one instance parser.  Each job row is checked as it is read, by the
    check functions ``Interval``, ``Job`` and ``Instance`` themselves run,
    so it refuses what building those objects would refuse, in the same
    order and with the same messages, without building them.  A job row
    that is not an object, or lacks ``id``/``start``/``end``, is refused by
    its position.  Accepts version-1/2 documents: a job row without a
    ``demand`` field gets demand 1, one without window fields is a fixed
    job, and an instance without ``site_capacity``/``background`` is
    uncapped — the semantics every older document meant.
    """
    _check_header(data, "busytime-instance")
    ids: List[int] = []
    starts: List[float] = []
    ends: List[float] = []
    weights: List[float] = []
    tags: List[str] = []
    demands: List[int] = []
    releases: Optional[List[Optional[float]]] = None
    deadlines: Optional[List[Optional[float]]] = None
    for position, row in enumerate(data["jobs"]):  # type: ignore[index]
        if type(row) is not dict and not isinstance(row, Mapping):
            raise ValueError(f"job row {position} is not an object")
        try:
            job_id = row["id"]
            if type(job_id) is not int:
                job_id = _int_field(job_id, f'job row {position} "id"')
            start = float(row["start"])
            end = float(row["end"])
        except KeyError as exc:
            raise ValueError(f'job row {position} has no "{exc.args[0]}"') from None
        except OverflowError as exc:
            # An integer literal too large for a float, as start or end.
            raise ValueError(f"job row {position}: {exc}") from None
        check_interval_fields(start, end)
        get = row.get
        weight = float(get("weight", 1.0))
        tag = str(get("tag", ""))
        demand = get("demand", 1)
        if type(demand) is not int or not -_EXACT_INT <= demand <= _EXACT_INT:
            demand = _demand_from_field(demand)
        release = get("release")
        if release is not None:
            release = float(release)
            if releases is None:
                releases = [None] * position
        deadline = get("deadline")
        if deadline is not None:
            deadline = float(deadline)
            if deadlines is None:
                deadlines = [None] * position
        check_job_fields(start, end, weight, demand, release, deadline)
        ids.append(job_id)
        starts.append(start)
        ends.append(end)
        weights.append(weight)
        tags.append(tag)
        demands.append(demand)
        if releases is not None:
            releases.append(release)
        if deadlines is not None:
            deadlines.append(deadline)
    g = _int_field(data["g"], '"g"')
    name = str(data.get("name", ""))
    site_capacity = data.get("site_capacity")
    if site_capacity is not None:
        site_capacity = _int_field(site_capacity, '"site_capacity"')
    background = data.get("background")
    if background is not None:
        background = BackgroundLoad.from_dict(background)  # type: ignore[arg-type]
    check_instance_fields(g, ids, demands, site_capacity, background)
    return InstanceRows._checked(
        g, name, ids, starts, ends, weights, tags, demands,
        releases, deadlines, site_capacity, background,
    )


def instance_from_dict(data: Mapping[str, object]) -> Instance:
    """Rebuild an :class:`Instance` from :func:`instance_to_dict` output.

    Parses through :func:`instance_rows_from_dict`, so both refuse the same
    documents with the same messages.
    """
    return instance_rows_from_dict(data).to_instance()


def save_instance(instance: Instance, path: _PathLike) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: _PathLike) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Union[Schedule, ScheduleRows]) -> Dict[str, object]:
    """A JSON-serialisable dict: the instance plus the machine partition.

    Written from the schedule's columns (a :class:`Schedule` is read into
    :class:`~busytime.core.schedule.ScheduleRows` first).  Version-3
    documents (emitted only for flex instances) additionally carry the
    ``placements`` table: the placed interval of every scheduled job that
    was slid away from its nominal position.
    """
    rows = as_schedule_rows(schedule)
    placements: List[Dict[str, object]] = []
    if rows.placements:
        positions, starts, ends, _ = rows.slot_columns()
        nominal_starts, nominal_ends = rows.instance.starts, rows.instance.ends
        for job_id, p, start, end in zip(rows.job_ids, positions, starts, ends):
            if p is not None and (start != nominal_starts[p] or end != nominal_ends[p]):
                placements.append({"id": job_id, "start": start, "end": end})
    job_ids, bounds = rows.job_ids, rows.bounds
    return schedule_document(
        rows.algorithm,
        rows.total_busy_time,
        instance_to_dict(rows.instance),
        [
            {"index": index, "job_ids": job_ids[lo:hi]}
            for index, lo, hi in zip(rows.indices, bounds, bounds[1:])
        ],
        placements,
    )


def schedule_document(
    algorithm: str,
    total_busy_time: float,
    instance_doc: Dict[str, object],
    machines: List[Dict[str, object]],
    placements: List[Dict[str, object]],
) -> Dict[str, object]:
    """The ``busytime-schedule`` document from its parts.

    The one writer of the format: :func:`schedule_to_dict` and the
    service's answer from flat rows both assemble their documents here.
    """
    flex = placements or instance_doc["version"] == 3
    doc: Dict[str, object] = {
        "format": "busytime-schedule",
        "version": 3 if flex else 2,
        "algorithm": algorithm,
        "total_busy_time": total_busy_time,
        "instance": instance_doc,
        "machines": machines,
    }
    if placements:
        doc["placements"] = placements
    return doc


def schedule_rows_from_dict(data: Mapping[str, object]) -> ScheduleRows:
    """Parse a ``busytime-schedule`` document into unchecked :class:`ScheduleRows`.

    The one schedule parser.  The instance goes through
    :func:`instance_rows_from_dict`; a placement that changed its job's
    length fails loudly, and one of a windowed job is re-placed through
    :meth:`~busytime.core.intervals.Job.placed_at` (so it fails outside the
    window, and a start within tolerance of a window edge is clamped to
    it); then each machine's ``job_ids`` and ``index`` are read.
    Feasibility is :func:`~busytime.core.schedule.verify_schedule`'s
    business, and the document's ``total_busy_time`` is kept as the
    stated cost it checks.
    """
    _check_header(data, "busytime-schedule")
    rows = instance_rows_from_dict(data["instance"])  # type: ignore[arg-type]
    position: Optional[Dict[int, int]] = None
    placements: Dict[int, Tuple[float, float]] = {}
    for k, row in enumerate(data.get("placements", ())):  # type: ignore[arg-type]
        if position is None:
            position = dict(zip(rows.ids, range(rows.n)))
        job_id = _int_field(row["id"], f'placement row {k} "id"')
        p = position[job_id]
        start, end = float(row["start"]), float(row["end"])
        length = rows.ends[p] - rows.starts[p]
        if abs((end - start) - length) > 1e-9 * max(1.0, abs(length)):
            raise ValueError(
                f"placement of job {job_id} has length {end - start!r} but the "
                f"job runs for {length!r}"
            )
        if rows.window(p) is None:
            # A fixed job has one placement; the oracle refuses any other.
            placements[job_id] = (start, end)
            continue
        placed = rows.job(p).placed_at(start)
        placements[job_id] = (placed.start, placed.end)
    indices: List[int] = []
    bounds = [0]
    job_ids: List[int] = []
    for k, row in enumerate(data["machines"]):  # type: ignore[arg-type]
        ids = row["job_ids"]
        if not set(map(type, ids)) <= {int}:
            ids = [_int_field(v, f'machine row {k} "job_ids"') for v in ids]
        job_ids += ids
        bounds.append(len(job_ids))
        index = row["index"]
        if type(index) is not int:
            index = _int_field(index, f'machine row {k} "index"')
        indices.append(index)
    stated = data.get("total_busy_time")
    return ScheduleRows(
        rows,
        indices,
        bounds,
        job_ids,
        placements,
        algorithm=str(data.get("algorithm", "")),
        total_busy_time=None if stated is None else float(stated),  # type: ignore[arg-type]
    )


def schedule_from_dict(data: Mapping[str, object]) -> Schedule:
    """Rebuild (and re-validate) a :class:`Schedule`.

    Parses through :func:`schedule_rows_from_dict`, runs
    :func:`~busytime.core.schedule.verify_schedule` once on the columns,
    then builds the objects.
    """
    rows = schedule_rows_from_dict(data)
    verify_schedule(rows)
    return rows.to_schedule()


def save_schedule(schedule: Schedule, path: _PathLike) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: _PathLike) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Solve reports (busytime.engine)
# ---------------------------------------------------------------------------


def solve_report_to_dict(
    report: SolveReport, include_timings: bool = True
) -> Dict[str, object]:
    """A JSON-serialisable dict for a :class:`~busytime.engine.SolveReport`.

    ``include_timings=False`` drops the wall-clock telemetry — both the
    ``timings`` map and the race outcome table, whose per-candidate wall
    times and incumbent timestamps vary run to run — leaving only the
    deterministic fields (see the module docstring's schema notes).  The
    service result store serialises with ``include_timings=False``, so
    cached bytes for the same canonical request are identical across runs.
    """
    return solve_report_document(
        report, schedule_to_dict(report.schedule), report.tags, include_timings
    )


def solve_report_document(
    report: SolveReport,
    schedule_doc: Dict[str, object],
    tags: Mapping[str, object],
    include_timings: bool = True,
) -> Dict[str, object]:
    """The ``busytime-solve-report`` document of ``report``'s metadata
    around ``schedule_doc``, echoing ``tags``.

    The one writer of the format (see :func:`schedule_document`).
    """
    doc: Dict[str, object] = {
        "format": "busytime-solve-report",
        "version": 3,
        "algorithm": report.algorithm,
        "policy": report.policy,
        "portfolio": report.portfolio,
        "objective": report.objective,
        "objective_value": report.objective_value,
        "lower_bound": report.lower_bound,
        "optimum": report.optimum,
        "proven_ratio": report.proven_ratio,
        "budget_exhausted": report.budget_exhausted,
        "components": [d.as_dict() for d in report.components],
        "tags": dict(tags),
        "schedule": schedule_doc,
    }
    if include_timings:
        doc["timings"] = dict(report.timings)
        if report.race is not None:
            doc["race"] = report.race.as_dict()
    return doc


def _race_outcome_from_dict(data: Mapping[str, object]) -> RaceOutcome:
    deadline = data.get("deadline")
    return RaceOutcome(
        candidates=tuple(
            RaceCandidate(
                algorithm=str(row["algorithm"]),
                rank=int(row["rank"]),
                status=str(row["status"]),
                started=bool(row.get("started", False)),
                wall_time=(
                    None if row.get("wall_time") is None else float(row["wall_time"])
                ),
                cost=None if row.get("cost") is None else float(row["cost"]),
                winner=bool(row.get("winner", False)),
            )
            for row in data.get("candidates", ())  # type: ignore[union-attr]
        ),
        deadline=None if deadline is None else float(deadline),
        accept_factor=float(data.get("accept_factor", 1.0)),
        decisive=bool(data.get("decisive", True)),
        fallback=bool(data.get("fallback", False)),
        incumbent_timeline=tuple(
            (float(point[0]), float(point[1]))
            for point in data.get("incumbent_timeline", ())  # type: ignore[union-attr]
        ),
    )


def solve_report_rows_from_dict(data: Mapping[str, object]) -> SolveReport:
    """Parse a report document into a :class:`~busytime.engine.SolveReport`
    whose schedule is unchecked :class:`~busytime.core.schedule.ScheduleRows`.

    The schedule goes through :func:`schedule_rows_from_dict`; run
    :func:`~busytime.core.schedule.verify_schedule` on it before trusting
    it (the result store's disk reads and :func:`solve_report_from_dict`
    do).
    """
    _check_header(data, "busytime-solve-report")
    schedule = schedule_rows_from_dict(data["schedule"])  # type: ignore[arg-type]
    components = tuple(
        ComponentDecision(
            component=str(row["component"]),
            n=int(row["n"]),
            algorithm=str(row["algorithm"]),
            cost=float(row["cost"]),
            proven_ratio=(
                None if row.get("proven_ratio") is None else float(row["proven_ratio"])
            ),
        )
        for row in data.get("components", ())  # type: ignore[union-attr]
    )
    optimum = data.get("optimum")
    proven = data.get("proven_ratio")
    objective_value = data.get("objective_value")
    return SolveReport(
        schedule=schedule,  # type: ignore[arg-type]
        algorithm=str(data.get("algorithm", "")),
        policy=str(data.get("policy", "")),
        portfolio=bool(data.get("portfolio", False)),
        lower_bound=float(data.get("lower_bound", 0.0)),
        optimum=None if optimum is None else float(optimum),
        components=components,
        proven_ratio=None if proven is None else float(proven),
        budget_exhausted=bool(data.get("budget_exhausted", False)),
        race=(
            None
            if data.get("race") is None
            else _race_outcome_from_dict(data["race"])  # type: ignore[arg-type]
        ),
        # Version-1 documents predate the cost-model axis; their implied
        # model is the default.
        objective=str(data.get("objective", "busy_time")),
        objective_value=None if objective_value is None else float(objective_value),
        timings=dict(data.get("timings", {})),  # type: ignore[arg-type]
        tags=dict(data.get("tags", {})),  # type: ignore[arg-type]
    )


def solve_report_from_dict(data: Mapping[str, object]) -> SolveReport:
    """Rebuild a :class:`~busytime.engine.SolveReport` (re-validating its schedule).

    :func:`solve_report_rows_from_dict`, one
    :func:`~busytime.core.schedule.verify_schedule` pass on the columns,
    then the objects.
    """
    report = solve_report_rows_from_dict(data)
    verify_schedule(report.schedule)
    return report.with_objects()


def save_solve_report(
    report: SolveReport, path: _PathLike, include_timings: bool = True
) -> None:
    Path(path).write_text(
        json.dumps(solve_report_to_dict(report, include_timings=include_timings), indent=2)
    )


def load_solve_report(path: _PathLike) -> SolveReport:
    return solve_report_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Optical traffic
# ---------------------------------------------------------------------------


def traffic_to_dict(traffic: Traffic) -> Dict[str, object]:
    return {
        "format": "busytime-traffic",
        "version": 1,
        "name": traffic.name,
        "num_nodes": traffic.network.num_nodes,
        "g": traffic.g,
        "lightpaths": [{"id": p.id, "a": p.a, "b": p.b} for p in traffic.lightpaths],
    }


def traffic_from_dict(data: Mapping[str, object]) -> Traffic:
    _check_header(data, "busytime-traffic")
    network = PathNetwork(int(data["num_nodes"]))
    lightpaths = tuple(
        Lightpath(id=int(row["id"]), a=int(row["a"]), b=int(row["b"]))
        for row in data["lightpaths"]  # type: ignore[index]
    )
    return Traffic(
        network=network,
        lightpaths=lightpaths,
        g=int(data["g"]),
        name=str(data.get("name", "")),
    )


def save_traffic(traffic: Traffic, path: _PathLike) -> None:
    Path(path).write_text(json.dumps(traffic_to_dict(traffic), indent=2))


def load_traffic(path: _PathLike) -> Traffic:
    return traffic_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Dynamic traces (arrive/depart event sequences)
# ---------------------------------------------------------------------------


def trace_event_to_dict(event: TraceEvent) -> Dict[str, object]:
    """One arrive/depart event as a JSON-serialisable row.

    This is also the wire shape the service's session endpoints accept —
    one row per streamed event, carrying the full job description on the
    arrival (departures only need the id, but echoing the job keeps rows
    self-contained and lets the server re-validate interval membership).
    """
    j = event.job
    return {
        "time": event.time,
        "kind": "arrive" if event.kind == ARRIVE else "depart",
        "job": {
            "id": j.id,
            "start": j.start,
            "end": j.end,
            "weight": j.weight,
            "tag": j.tag,
            "demand": j.demand,
        },
    }


def trace_event_from_dict(row: Mapping[str, object]) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from :func:`trace_event_to_dict` output."""
    if not isinstance(row, Mapping):
        # As _check_header does for documents: a format error, not an
        # AttributeError out of `.get` below.
        raise ValueError(
            f"event row must be a JSON object, got {type(row).__name__}"
        )
    kind_field = row.get("kind")
    if kind_field not in ("arrive", "depart"):
        raise ValueError(f"event kind must be 'arrive' or 'depart', got {kind_field!r}")
    job_row = row.get("job")
    if not isinstance(job_row, Mapping):
        raise ValueError("event row is missing its 'job' object")
    job = Job(
        id=_int_field(job_row["id"], 'event job "id"'),
        interval=Interval(float(job_row["start"]), float(job_row["end"])),
        weight=float(job_row.get("weight", 1.0)),
        tag=str(job_row.get("tag", "")),
        demand=_demand_from_field(job_row.get("demand", 1)),
    )
    return TraceEvent(
        time=float(row["time"]),
        kind=ARRIVE if kind_field == "arrive" else DEPART,
        job=job,
    )


def dynamic_trace_to_dict(trace: DynamicTrace) -> Dict[str, object]:
    """A JSON-serialisable dict describing the full trace."""
    return {
        "format": "busytime-trace",
        "version": 1,
        "name": trace.name,
        "g": trace.g,
        "events": [trace_event_to_dict(e) for e in trace.events],
    }


def dynamic_trace_from_dict(data: Mapping[str, object]) -> DynamicTrace:
    """Rebuild a :class:`DynamicTrace` from :func:`dynamic_trace_to_dict` output."""
    _check_header(data, "busytime-trace")
    events = tuple(
        trace_event_from_dict(row)
        for row in data["events"]  # type: ignore[index]
    )
    return DynamicTrace(events=events, g=int(data["g"]), name=str(data.get("name", "")))


def save_dynamic_trace(trace: DynamicTrace, path: _PathLike) -> None:
    Path(path).write_text(json.dumps(dynamic_trace_to_dict(trace), indent=2))


def load_dynamic_trace(path: _PathLike) -> DynamicTrace:
    return dynamic_trace_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# CSV job lists
# ---------------------------------------------------------------------------


def jobs_to_csv(instance: Instance, path: _PathLike) -> None:
    """Write the job list as CSV (``id,start,end,weight,tag,demand``)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "start", "end", "weight", "tag", "demand"])
        for j in instance.jobs:
            writer.writerow([j.id, j.start, j.end, j.weight, j.tag, j.demand])


def jobs_from_csv(path: _PathLike, g: int, name: str = "") -> Instance:
    """Read a CSV job list (``id,start,end[,weight][,tag][,demand]``)."""
    jobs: List[Job] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"start", "end"} <= set(reader.fieldnames):
            raise ValueError("CSV must have at least 'start' and 'end' columns")
        for i, row in enumerate(reader):
            job_id = int(row["id"]) if row.get("id") not in (None, "") else i
            jobs.append(
                Job(
                    id=job_id,
                    interval=Interval(float(row["start"]), float(row["end"])),
                    weight=float(row.get("weight") or 1.0),
                    tag=row.get("tag") or "",
                    demand=_demand_from_field(row.get("demand") or 1),
                )
            )
    return Instance(jobs=tuple(jobs), g=g, name=name or str(path))
