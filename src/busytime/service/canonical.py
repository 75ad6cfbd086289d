"""Canonical forms and content fingerprints for solve requests.

Two requests that describe *the same mathematical problem* should hit the
same cache line.  The busy-time objective is invariant under two request
symmetries that real traffic exercises constantly:

* **job relabeling** — job ids are names, not data; permuting them (or the
  order of the job list) permutes the schedule's machine contents but not
  its cost;
* **global time translation** — shifting every interval by the same delta
  shifts every machine's busy interval by that delta and leaves every
  length, span, overlap and load unchanged (the paper's quantities ``len``
  and ``span`` are translation invariant by definition).

:func:`canonicalize` quotients both symmetries out: jobs are translated so
the earliest start sits at 0, sorted by ``(start, end, weight, tag,
demand)`` and relabeled ``0..n-1`` (ties broken by original id, so the map
back is deterministic).  :func:`request_fingerprint` then hashes the
canonical rows together with the solve options — everything in
:meth:`~busytime.engine.request.SolveRequest.options_dict` *except* the
free-form ``tags``, which label a request without changing its answer.  The
problem-model axis is data, not a label: per-job capacity demands sit in
the canonical rows and the resolved cost model (objective name, activation
cost, busy rate, machine weight) sits in the hashed options, so two
requests differing only in pricing or demands never share a cache line.

The arithmetic is exact: canonicalization subtracts the instance's own
minimum start, so equal fingerprints mean bit-equal canonical coordinates.
(Callers constructing shifted variants in floating point should shift by
values exact in binary — integers, dyadic rationals — or the *inputs*
already differ before canonicalization sees them.)

Both steps run on flat columns: :func:`canonicalize` takes an
:class:`~busytime.core.instance.Instance` or the
:class:`~busytime.core.instance.InstanceRows` a parsed document already is,
and the fingerprint hashes the float columns as IEEE-754 bytes.  The
result store keeps canonical reports flat too (a report whose schedule is
:class:`~busytime.core.schedule.ScheduleRows`), so a cache hit never builds
a job object: :func:`decanonicalized_rows` maps (and so checks) the cached
answer onto the caller's rows once, when the job finishes, into one array
of row positions, and :func:`decanonicalized_document` writes the reply
from that array, the cached report and the rows.

:func:`decanonicalize_report` is the inverse step with objects: it maps a
report solved on the canonical instance back onto the caller's original
instance — original job objects, original ids, original time axis.  The
mapping is checked exactly (bijection onto the original job set, bit-equal
translated intervals), which makes the rebuilt schedule feasible *by
construction* given that the canonical schedule was verified when it
reached the service (``Engine.solve`` verifies what it returns; the store
runs the oracle on every disk read).  It runs no oracle pass of its own.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from .. import io as bio
from ..core.events import covered_measure
from ..core.instance import Instance, InstanceRows, as_rows
from ..core.intervals import Interval, Job
from ..core.schedule import Machine, Schedule, as_schedule_rows
from ..engine.report import SolveReport
from ..engine.request import SolveRequest

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_request",
    "request_fingerprint",
    "decanonicalize_report",
    "CanonicalMap",
    "Mapped",
    "decanonicalized_rows",
    "decanonicalized_document",
]

#: Version tag baked into every fingerprint so a change to the canonical
#: document shape can never collide with fingerprints minted before it.
#: Version 2 added the problem-model axis: per-job demands in the rows and
#: the resolved cost model in the options (version-1 store entries degrade
#: to misses, as the store guarantees for unknown versions).  Version 3
#: added the portfolio-racing options (``race``/``deadline``) to the option
#: document: a raced solve and a single-dispatch solve of the same instance
#: may legitimately return different (equally feasible) schedules, so they
#: must never share a cache line.  Version 4 added the flex extension:
#: windowed instances carry 7-element rows (``rel_release``/``rel_deadline``
#: appended; window-free instances keep the 5-element rows, so their
#: canonical content is unchanged modulo the version tag), the instance's
#: ``site_capacity``/``background`` enter the document only when set, and a
#: banded tariff's breakpoints are *anchored* (translated by ``-offset``)
#: in both the hashed options and the canonical request's cost model — so
#: global time translation of instance + tariff together still hits the
#: same cache line, and the canonical solve prices bands correctly.
#: Version 5 dropped the request's schedule-verification switch from the
#: option document (the engine always verifies), so stores written under
#: version 4 go cold once.  Version 6 hashes the float columns (start, end,
#: weight and the window bounds) as little-endian IEEE-754 bytes instead of
#: their ``repr`` strings; stores written under version 5 go cold once.
CANONICAL_VERSION = 6

#: Instance sizes from which :func:`canonicalize` sorts with ``np.lexsort``
#: over column arrays instead of python tuple sorting.  Same keys, same
#: ties, same floats — only the sort machinery changes, so fingerprints are
#: identical on both paths (pinned by
#: ``tests/test_service.py::test_canonical_lexsort_path_matches_tuple_sort``).
CANONICAL_LEXSORT_MIN = 4096


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical quotient of an instance plus the data to undo it.

    Attributes
    ----------
    g:
        The parallelism parameter (not touched by canonicalization).
    rows:
        One ``(start, end, weight, tag, demand)`` tuple per canonical job
        ``k``, already translated (earliest start at 0) and sorted.  On
        instances with at least one genuinely windowed job every row has
        two more elements, the translated ``(release, deadline)`` of the
        job's effective window.
    id_map:
        ``id_map[k]`` is the *original* id of canonical job ``k``.
    offset:
        The translation that was subtracted: original time = canonical
        time + ``offset``.
    name:
        The original instance name (names are labels, not data, so the
        canonical instance drops them).
    site_capacity:
        The instance's site-wide capacity cap, if any (an integer count,
        translation invariant).
    background:
        The instance's inflexible background load, if any, as anchored
        ``(breakpoints, levels)`` tuples (breakpoints translated by
        ``-offset``).
    """

    g: int
    rows: Tuple[Tuple, ...]
    id_map: Tuple[int, ...]
    offset: float
    name: str
    site_capacity: Optional[int] = None
    background: Optional[Tuple[Tuple[float, ...], Tuple[int, ...]]] = None

    @property
    def mapping(self) -> "CanonicalMap":
        """The id map and offset: what a finished job keeps of the form."""
        return CanonicalMap(self.id_map, self.offset)

    @property
    def instance(self) -> Instance:
        """The canonical :class:`Instance`, built lazily and cached.

        Cache *hits* never need the canonical instance — only the rows (for
        the fingerprint) and the id map (to translate the answer back) — so
        the object construction cost is deferred to actual solves.
        """
        built = self.__dict__.get("_instance")
        if built is None:
            jobs = []
            for k, row in enumerate(self.rows):
                start, end, weight, tag, demand = row[:5]
                release = deadline = None
                if len(row) == 7:
                    release, deadline = row[5], row[6]
                jobs.append(
                    Job(
                        id=k,
                        interval=Interval(start, end),
                        weight=weight,
                        tag=tag,
                        demand=demand,
                        release=release,
                        deadline=deadline,
                    )
                )
            background = None
            if self.background is not None:
                from ..pricing.series import BackgroundLoad

                background = BackgroundLoad(self.background[0], self.background[1])
            built = Instance(
                jobs=tuple(jobs),
                g=self.g,
                name="",
                site_capacity=self.site_capacity,
                background=background,
            )
            object.__setattr__(self, "_instance", built)
        return built


def _site_fields(
    rows: InstanceRows, offset: float
) -> Tuple[Optional[int], Optional[Tuple[Tuple[float, ...], Tuple[int, ...]]]]:
    background = None
    if rows.background is not None:
        bg = rows.background
        background = (tuple(b - offset for b in bg.breakpoints), bg.levels)
    return rows.site_capacity, background


def canonicalize(source: Union[Instance, InstanceRows]) -> CanonicalForm:
    """The canonical form of an instance (relabeling/translation quotient).

    ``source`` is an :class:`Instance` or the :class:`InstanceRows` of a
    parsed document; both give the same form.
    """
    rows = as_rows(source)
    n = rows.n
    if not n:
        site_capacity, background = _site_fields(rows, 0.0)
        return CanonicalForm(
            g=rows.g,
            rows=(),
            id_map=(),
            offset=0.0,
            name=rows.name,
            site_capacity=site_capacity,
            background=background,
        )
    offset = min(rows.starts)
    site_capacity, background = _site_fields(rows, offset)
    starts = [s - offset for s in rows.starts]
    ends = [e - offset for e in rows.ends]
    if rows.has_windows:
        # Windowed rows append the translated *effective* window, so a job
        # whose explicit window has zero slack canonicalizes exactly like
        # the fixed job it is (the effective window is then the interval
        # itself and the extension degenerates bit-for-bit).
        releases = rows.releases or [None] * n
        deadlines = rows.deadlines or [None] * n
        keyed = sorted(
            zip(
                starts,
                ends,
                rows.weights,
                rows.tags,
                rows.demands,
                [
                    (s if r is None else r) - offset
                    for s, r in zip(rows.starts, releases)
                ],
                [
                    (e if d is None else d) - offset
                    for e, d in zip(rows.ends, deadlines)
                ],
                rows.ids,
            )
        )
        columns = tuple(zip(*keyed))
        return CanonicalForm(
            g=rows.g,
            rows=tuple(zip(*columns[:7])),
            id_map=columns[7],
            offset=offset,
            name=rows.name,
            site_capacity=site_capacity,
            background=background,
        )
    if n >= CANONICAL_LEXSORT_MIN:
        import numpy as np

        # Least-significant key first; the trailing id key makes the
        # order (and hence id_map) total and deterministic, exactly like
        # the tuple sort below.
        order = np.lexsort(
            (
                np.array(rows.ids, dtype=np.int64),
                np.array(rows.demands, dtype=np.float64),
                np.array(rows.tags),
                np.array(rows.weights, dtype=np.float64),
                np.array(ends, dtype=np.float64),
                np.array(starts, dtype=np.float64),
            )
        ).tolist()
        keyed = [
            (starts[p], ends[p], rows.weights[p], rows.tags[p], rows.demands[p], rows.ids[p])
            for p in order
        ]
    else:
        # Sort by the canonical coordinates; ties (identical jobs up to id)
        # break by original id so the id_map is deterministic.  Identical
        # jobs are interchangeable in any schedule, so which one lands
        # where is immaterial.
        keyed = sorted(zip(starts, ends, rows.weights, rows.tags, rows.demands, rows.ids))
    columns = tuple(zip(*keyed))
    return CanonicalForm(
        g=rows.g,
        rows=tuple(zip(*columns[:5])),
        id_map=columns[5],
        offset=offset,
        name=rows.name,
        site_capacity=site_capacity,
        background=background,
    )


def _anchored_cost_model(request: SolveRequest, form: CanonicalForm):
    """The request's resolved cost model with its tariff anchored at 0.

    Returns ``None`` when nothing needs anchoring (no tariff, a constant
    tariff with no breakpoints, or a zero offset) so callers can keep the
    request's own ``cost_model`` field — including ``None`` meaning "the
    registered default" — untouched.
    """
    model = request.resolved_cost_model()
    tariff = getattr(model, "tariff", None)
    if tariff is None or not tariff.breakpoints or form.offset == 0.0:
        return None
    return replace(model, tariff=tariff.shifted(-form.offset))


def canonical_request(
    request: SolveRequest, form: Optional[CanonicalForm] = None
) -> Tuple[SolveRequest, CanonicalForm]:
    """The request rewritten onto the canonical instance, plus the form.

    ``tags`` are stripped from the canonical request (they are echo-only
    labels); the caller re-attaches its own tags on de-canonicalization.
    A banded tariff is anchored alongside the instance (breakpoints
    translated by ``-offset``) so band boundaries keep their relative
    position to the jobs.  ``form`` may carry a precomputed
    :func:`canonicalize` result.
    """
    if form is None:
        form = canonicalize(request.instance)
    anchored = _anchored_cost_model(request, form)
    if anchored is not None:
        return (
            replace(request, instance=form.instance, tags={}, cost_model=anchored),
            form,
        )
    return replace(request, instance=form.instance, tags={}), form


def _float_bytes(column) -> bytes:
    """A float column as little-endian IEEE-754 doubles."""
    packed = array("d", column)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed.tobytes()


def request_fingerprint(
    request: SolveRequest, form: Optional[CanonicalForm] = None
) -> str:
    """Content fingerprint of a solve request (hex SHA-256).

    Equal fingerprints <=> equal canonical instances *and* equal solve
    options (minus tags).  Relabeled and globally time-shifted variants of
    the same instance therefore hash identically.  ``form`` may carry a
    precomputed :func:`canonicalize` result to avoid re-deriving it.

    The hash input is a JSON header (version, ``g``, the options, the site
    fields and the job count and row width, which fix the length of what
    follows), then the float columns of the canonical rows as IEEE-754
    bytes (start, end, weight, and the window bounds on windowed rows),
    then the tag and demand columns as JSON.  Bit-equal coordinates give
    byte-equal input, as ``repr`` did, without formatting a float.
    """
    if form is None:
        form = canonicalize(request.instance)
    options = request.options_dict()
    options.pop("tags", None)
    anchored = _anchored_cost_model(request, form)
    if anchored is not None:
        options["cost_model"] = anchored.to_dict()
    width = len(form.rows[0]) if form.rows else 5
    header: Dict[str, object] = {
        "format": "busytime-canonical-request",
        "version": CANONICAL_VERSION,
        "g": form.g,
        "jobs": len(form.rows),
        "width": width,
        "options": options,
    }
    if form.site_capacity is not None:
        header["site_capacity"] = form.site_capacity
    if form.background is not None:
        header["background"] = [list(form.background[0]), list(form.background[1])]
    digest = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    if form.rows:
        columns = tuple(zip(*form.rows))
        floats = (0, 1, 2) if width == 5 else (0, 1, 2, 5, 6)
        for k in floats:
            digest.update(_float_bytes(columns[k]))
        digest.update(
            json.dumps([columns[3], columns[4]], separators=(",", ":")).encode("utf-8")
        )
    return digest.hexdigest()


@dataclass(frozen=True)
class CanonicalMap:
    """What maps an answer on the canonical instance back onto the caller's.

    ``id_map[k]`` is the caller's id of canonical job ``k`` and ``offset``
    the translation canonicalization subtracted.  A finished service job
    keeps this, not the whole :class:`CanonicalForm`.
    """

    id_map: Tuple[int, ...]
    offset: float


def _mismatch(rows: InstanceRows, position: int, k: int, offset: float) -> ValueError:
    return ValueError(
        f"canonical form does not match instance {rows.name or '(unnamed)'}: "
        f"job {rows.ids[position]} is not job {k} translated by {offset}"
    )


#: Where each canonical job lands among the caller's rows (one position
#: per scheduled job, in the canonical schedule's machine order; the
#: machine bounds are the canonical schedule's), and the caller-axis
#: ``(start, end)`` of each windowed job the canonical solve slid, by
#: position (``None`` when none was).
Mapped = Tuple[array, Optional[Dict[int, Tuple[float, float]]]]


def decanonicalized_rows(
    report: SolveReport, rows: InstanceRows, mapping: Union[CanonicalForm, CanonicalMap]
) -> Mapped:
    """The canonical schedule mapped onto the caller's rows, checked exactly.

    Canonical job ``k`` must be the caller's job ``id_map[k]`` translated
    by ``offset``, bit for bit, with the same demand (or, for a windowed
    job, a placement inside its window, re-placed through
    :meth:`Job.placed_at` on the caller's time axis), and every job must be
    scheduled: anything else raises ``ValueError`` (``KeyError`` or
    ``IndexError`` for an id the map does not know).  ``report`` may be
    flat or carry :class:`Schedule` objects.

    Column by column: when every job sits at its translated interval the
    check is a few list comparisons; otherwise each job is checked in
    machine order, so the first fault is the one reported.
    """
    schedule = as_schedule_rows(report.schedule)
    id_map, offset = mapping.id_map, mapping.offset
    position = dict(zip(rows.ids, range(rows.n)))
    canonical_ids = schedule.job_ids
    _, c_starts, c_ends, c_demands = schedule.slot_columns()
    try:
        caller = list(map(position.__getitem__, id_map))
        positions = list(map(caller.__getitem__, canonical_ids))
    except (KeyError, IndexError, TypeError):
        positions = None
    starts, ends = rows.starts, rows.ends
    if (
        positions is not None
        and len(positions) == rows.n
        and list(map(rows.demands.__getitem__, positions)) == c_demands
        and [starts[p] - offset for p in positions] == c_starts
        and [ends[p] - offset for p in positions] == c_ends
    ):
        return array("q", positions), None
    mapped = array("q")
    placed: Optional[Dict[int, Tuple[float, float]]] = None
    windowed = rows.releases is not None or rows.deadlines is not None
    demands = rows.demands
    for slot, k in enumerate(canonical_ids):
        p = position[id_map[k]]
        start, end = c_starts[slot], c_ends[slot]
        if demands[p] != c_demands[slot]:
            raise _mismatch(rows, p, k, offset)
        if starts[p] - offset == start and ends[p] - offset == end:
            mapped.append(p)
        elif windowed and rows.window(p) is not None:
            # A window-aware canonical solve may have slid the job; map
            # the placed interval back onto the original time axis.
            # ``placed_at`` re-validates window containment, and the
            # length is preserved by construction on both sides.
            job = rows.job(p).placed_at(start + offset)
            if abs(job.length - (end - start)) > 1e-9 * max(1.0, abs(job.length)):
                raise ValueError(
                    f"canonical placement of job {job.id} changed its length"
                )
            if placed is None:
                placed = {}
            placed[p] = (job.start, job.end)
            mapped.append(p)
        else:
            raise _mismatch(rows, p, k, offset)
    if len(mapped) != rows.n:
        raise ValueError(
            f"canonical schedule covers {len(mapped)} jobs, instance has {rows.n}"
        )
    return mapped, placed


def decanonicalize_report(
    report: SolveReport,
    form: Union[CanonicalForm, CanonicalMap, Mapped],
    original: Union[Instance, InstanceRows],
    tags: Optional[Mapping[str, object]] = None,
) -> SolveReport:
    """Map a report solved on the canonical instance back onto the original.

    Every canonical job ``k`` is replaced by the original job with id
    ``form.id_map[k]``.  The mapping is verified exactly — it must be a
    bijection onto the original job set and every original interval must be
    the canonical one translated by ``form.offset`` (bit-equal, as produced
    by :func:`canonicalize`) — so a form paired with the wrong instance
    raises instead of fabricating a schedule.  Under those checks the
    rebuilt schedule is feasible by construction whenever the canonical one
    was, so no oracle pass runs here.  ``original`` may be the caller's
    rows, and ``report`` flat; the objects are built here.  ``form`` may
    also be what :func:`decanonicalized_rows` already returned for this
    report and ``original`` (a finished service job keeps it): then those
    checked positions are used and the mapping is not redone.

    Costs, bounds and certificates are translation/relabeling invariant and
    carry over unchanged.
    """
    rows = as_rows(original)
    if isinstance(form, tuple):
        positions, placed = form
    else:
        positions, placed = decanonicalized_rows(report, rows, form)
    instance = rows.to_instance()
    jobs = list(map(instance.jobs.__getitem__, positions))
    if placed is not None:
        for slot, p in enumerate(positions):
            interval = placed.get(p)
            if interval is not None:
                jobs[slot] = replace(jobs[slot], interval=Interval(*interval))
    canonical = as_schedule_rows(report.schedule)
    bounds = canonical.bounds
    schedule = Schedule(
        instance=instance,
        machines=tuple(
            Machine(index=index, jobs=tuple(jobs[lo:hi]))
            for index, lo, hi in zip(canonical.indices, bounds, bounds[1:])
        ),
        algorithm=canonical.algorithm,
        meta=dict(canonical.meta),
    )
    return replace(
        report,
        schedule=schedule,
        tags=dict(tags) if tags is not None else dict(report.tags),
    )


def decanonicalized_document(
    report: SolveReport,
    rows: InstanceRows,
    mapped: Mapped,
    tags: Mapping[str, object],
) -> Dict[str, object]:
    """``solve_report_to_dict(decanonicalize_report(report, mapping, rows, tags))``,
    written from the positions :func:`decanonicalized_rows` gave (``mapped``).

    Partitions come from the positions, the instance echo from the rows,
    and each machine's busy time is :func:`covered_measure` of its jobs on
    the caller's own coordinates, the arithmetic
    ``SweepProfile.from_intervals`` uses, so the document is byte-equal to
    the one the object path writes.  No object is built.
    """
    positions, placed = mapped
    canonical = as_schedule_rows(report.schedule)
    bounds = canonical.bounds
    ids, starts, ends = rows.ids, rows.starts, rows.ends
    machine_docs = []
    busy = []
    placements = []
    for index, lo, hi in zip(canonical.indices, bounds, bounds[1:]):
        here = positions[lo:hi]
        m_starts = list(map(starts.__getitem__, here))
        m_ends = list(map(ends.__getitem__, here))
        if placed is not None:
            for slot, p in enumerate(here):
                interval = placed.get(p)
                if interval is None:
                    continue
                m_starts[slot], m_ends[slot] = interval
                if interval != (starts[p], ends[p]):
                    placements.append({"id": ids[p], "start": interval[0], "end": interval[1]})
        busy.append(covered_measure(m_starts, m_ends))
        machine_docs.append({"index": index, "job_ids": list(map(ids.__getitem__, here))})
    schedule = bio.schedule_document(
        canonical.algorithm,
        # Schedule.total_busy_time is a plain sum() over the machines.
        sum(busy),
        bio.instance_to_dict(rows),
        machine_docs,
        placements,
    )
    return bio.solve_report_document(report, schedule, tags)

