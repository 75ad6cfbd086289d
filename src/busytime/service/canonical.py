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

:func:`decanonicalize_report` is the inverse step the result store needs:
it maps a report solved on the canonical instance back onto the caller's
original instance — original job objects, original ids, original time
axis.  The mapping is checked exactly (bijection onto the original job
set, bit-equal translated intervals), which makes the rebuilt schedule
feasible *by construction* given that the canonical schedule was verified
when it reached the service (``Engine.solve`` verifies what it returns;
disk loads re-verify in ``schedule_from_dict``).  It runs no oracle pass
of its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from ..core.instance import Instance
from ..core.intervals import Interval, Job
from ..core.schedule import Machine, Schedule
from ..engine.report import SolveReport
from ..engine.request import SolveRequest

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_request",
    "request_fingerprint",
    "decanonicalize_report",
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
#: version 4 go cold once.
CANONICAL_VERSION = 5

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
    instance: Instance, offset: float
) -> Tuple[Optional[int], Optional[Tuple[Tuple[float, ...], Tuple[int, ...]]]]:
    background = None
    if instance.background is not None:
        bg = instance.background
        background = (tuple(b - offset for b in bg.breakpoints), bg.levels)
    return instance.site_capacity, background


def canonicalize(instance: Instance) -> CanonicalForm:
    """The canonical form of an instance (relabeling/translation quotient)."""
    if not instance.jobs:
        site_capacity, background = _site_fields(instance, 0.0)
        return CanonicalForm(
            g=instance.g,
            rows=(),
            id_map=(),
            offset=0.0,
            name=instance.name,
            site_capacity=site_capacity,
            background=background,
        )
    jobs = instance.jobs
    offset = min(j.start for j in jobs)
    site_capacity, background = _site_fields(instance, offset)
    if instance.has_windows:
        # Windowed rows append the translated *effective* window, so a job
        # whose explicit window has zero slack canonicalizes exactly like
        # the fixed job it is (the effective window is then the interval
        # itself and the extension degenerates bit-for-bit).
        keyed = sorted(
            (
                j.start - offset,
                j.end - offset,
                j.weight,
                j.tag,
                j.demand,
                j.window_release - offset,
                j.window_deadline - offset,
                j.id,
            )
            for j in jobs
        )
        return CanonicalForm(
            g=instance.g,
            rows=tuple(row[:7] for row in keyed),
            id_map=tuple(row[7] for row in keyed),
            offset=offset,
            name=instance.name,
            site_capacity=site_capacity,
            background=background,
        )
    n = len(jobs)
    if n >= CANONICAL_LEXSORT_MIN:
        import numpy as np

        starts = np.fromiter((j.start for j in jobs), np.float64, count=n)
        ends = np.fromiter((j.end for j in jobs), np.float64, count=n)
        starts -= offset
        ends -= offset
        weights = np.fromiter((j.weight for j in jobs), np.float64, count=n)
        demands = np.fromiter((j.demand for j in jobs), np.float64, count=n)
        ids = np.fromiter((j.id for j in jobs), np.int64, count=n)
        tags = np.array([j.tag for j in jobs])
        # Least-significant key first; the trailing id key makes the
        # order (and hence id_map) total and deterministic, exactly like
        # the tuple sort below.
        order = np.lexsort((ids, demands, tags, weights, ends, starts))
        s_list = starts.tolist()
        e_list = ends.tolist()
        rows = []
        id_map = []
        for k in order.tolist():
            j = jobs[k]
            rows.append((s_list[k], e_list[k], j.weight, j.tag, j.demand))
            id_map.append(j.id)
        return CanonicalForm(
            g=instance.g,
            rows=tuple(rows),
            id_map=tuple(id_map),
            offset=offset,
            name=instance.name,
            site_capacity=site_capacity,
            background=background,
        )
    # Sort by the canonical coordinates; ties (identical jobs up to id) break
    # by original id so the id_map is deterministic.  Identical jobs are
    # interchangeable in any schedule, so which one lands where is immaterial.
    keyed = sorted(
        (j.start - offset, j.end - offset, j.weight, j.tag, j.demand, j.id)
        for j in instance.jobs
    )
    return CanonicalForm(
        g=instance.g,
        rows=tuple(row[:5] for row in keyed),
        id_map=tuple(row[5] for row in keyed),
        offset=offset,
        name=instance.name,
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


def request_fingerprint(
    request: SolveRequest, form: Optional[CanonicalForm] = None
) -> str:
    """Content fingerprint of a solve request (hex SHA-256).

    Equal fingerprints <=> equal canonical instances *and* equal solve
    options (minus tags).  Relabeled and globally time-shifted variants of
    the same instance therefore hash identically.  ``form`` may carry a
    precomputed :func:`canonicalize` result to avoid re-deriving it.

    Floats serialise through ``repr`` (shortest round-trip form), so
    bit-equal coordinates produce byte-equal hash inputs.
    """
    if form is None:
        form = canonicalize(request.instance)
    options = request.options_dict()
    options.pop("tags", None)
    anchored = _anchored_cost_model(request, form)
    if anchored is not None:
        options["cost_model"] = anchored.to_dict()
    doc = {
        "format": "busytime-canonical-request",
        "version": CANONICAL_VERSION,
        "g": form.g,
        "jobs": [list(row) for row in form.rows],
        "options": options,
    }
    if form.site_capacity is not None:
        doc["site_capacity"] = form.site_capacity
    if form.background is not None:
        doc["background"] = [list(form.background[0]), list(form.background[1])]
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def decanonicalize_report(
    report: SolveReport,
    form: CanonicalForm,
    original: Instance,
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
    was, so no oracle pass runs here.

    Costs, bounds and certificates are translation/relabeling invariant and
    carry over unchanged.
    """
    by_id = {j.id: j for j in original.jobs}
    seen = 0
    machines = []
    for m in report.schedule.machines:
        jobs = []
        for canonical_job in m.jobs:
            original_job = by_id[form.id_map[canonical_job.id]]
            if original_job.demand != canonical_job.demand:
                raise ValueError(
                    f"canonical form does not match instance "
                    f"{original.name or '(unnamed)'}: job {original_job.id} "
                    f"is not job {canonical_job.id} translated by {form.offset}"
                )
            nominal_match = (
                original_job.start - form.offset == canonical_job.start
                and original_job.end - form.offset == canonical_job.end
            )
            if nominal_match:
                jobs.append(original_job)
            elif original_job.has_window:
                # A window-aware canonical solve may have slid the job; map
                # the placed interval back onto the original time axis.
                # ``placed_at`` re-validates window containment, and the
                # length is preserved by construction on both sides.
                placed = original_job.placed_at(canonical_job.start + form.offset)
                if abs(placed.length - canonical_job.length) > 1e-9 * max(
                    1.0, abs(placed.length)
                ):
                    raise ValueError(
                        f"canonical placement of job {original_job.id} changed "
                        f"its length"
                    )
                jobs.append(placed)
            else:
                raise ValueError(
                    f"canonical form does not match instance "
                    f"{original.name or '(unnamed)'}: job {original_job.id} "
                    f"is not job {canonical_job.id} translated by {form.offset}"
                )
        seen += len(jobs)
        machines.append(Machine(index=m.index, jobs=tuple(jobs)))
    if seen != original.n:
        raise ValueError(
            f"canonical schedule covers {seen} jobs, instance has {original.n}"
        )
    schedule = Schedule(
        instance=original,
        machines=tuple(machines),
        algorithm=report.schedule.algorithm,
        meta=dict(report.schedule.meta),
    )
    return replace(
        report,
        schedule=schedule,
        tags=dict(tags) if tags is not None else dict(report.tags),
    )
