"""Vectorized (numpy) bulk kernels for profiles, verification and FirstFit.

The per-operation machine state (:class:`~busytime.core.events.SweepProfile`)
answers one query at a time.  The helpers here answer *many* at once: they
trade the incremental structure for whole-array numpy passes and are what
lets the library reach n = 10^6 jobs (experiment E21) without leaving pure
Python.

Four groups of kernels:

* **array extraction** (:func:`job_arrays`) — jobs to ``(starts, ends,
  demands)`` float64/None arrays;
* **bulk profile construction** (:func:`profile_arrays`) — the vectorized
  twin of ``SweepProfile.from_intervals``'s rank counting, producing the
  exact same ``point``/``seg`` (and demand-weighted) arrays;
* **batch oracle sweeps** (:func:`machine_peaks`) — peak load, peak demand
  and span of one machine's job set via a single lexsort + cumsum sweep;
  used by ``verify_schedule(mode="batch")`` as the vectorized independent
  oracle (it never reads a profile);
* **the FirstFit saturation kernel** (:func:`first_fit_assign`) — the
  whole longest-first FirstFit loop over coordinate-compressed breakpoints
  with a per-breakpoint *saturation bitmask*: bit ``t`` of ``sat[p]`` is set
  exactly when machine ``t`` already runs ``g`` jobs at breakpoint ``p``, so
  the lowest fitting machine for a job is the lowest zero bit of the OR of
  ``sat`` over the job's window.  Produces assignments **bit-identical** to
  the per-job builder path (pinned by ``tests/test_first_fit.py`` and
  ``benchmarks/test_bench_bulk_kernel.py``), at ~10^5 jobs/second.

Everything in this module is pure functions over arrays — no profile
object.  Callers (``first_fit``, ``verify_schedule``,
``SweepProfile.from_intervals``) route here by input size alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "job_arrays",
    "profile_arrays",
    "machine_peaks",
    "first_fit_assign",
    "MAX_BITMASK_MACHINES",
]


def job_arrays(
    jobs: Sequence,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(starts, ends, demands)`` arrays of a job sequence.

    ``demands`` is ``None`` when every job has unit demand, so unit-demand
    callers keep their unweighted fast paths without an O(n) re-check.
    """
    n = len(jobs)
    starts = np.fromiter((j.start for j in jobs), dtype=np.float64, count=n)
    ends = np.fromiter((j.end for j in jobs), dtype=np.float64, count=n)
    demands = np.fromiter((j.demand for j in jobs), dtype=np.float64, count=n)
    if np.all(demands == 1.0):
        return starts, ends, None
    return starts, ends, demands


def profile_arrays(
    starts: np.ndarray,
    ends: np.ndarray,
    demands: Optional[np.ndarray] = None,
) -> Tuple[List[float], List[int], List[int], Optional[list], Optional[list], float]:
    """Vectorized sweep-profile arrays of a set of closed intervals.

    Returns ``(times, point, seg, dpoint, dseg, measure)`` with exactly the
    semantics of ``SweepProfile.from_intervals``'s rank counting: ``point[i]``
    is the closed load at breakpoint ``times[i]``, ``seg[i]`` the load on the
    open segment to its right, and the demand-weighted twins are ``None``
    while all demands are 1.  Integer counts are exact; ``measure`` is the
    covered length (Klee) of the union.
    """
    if len(starts) == 0:
        return [], [], [], None, None, 0.0
    s_sorted = np.sort(starts)
    e_sorted = np.sort(ends)
    times = np.unique(np.concatenate([starts, ends]))
    s_rank = np.searchsorted(s_sorted, times, side="right")
    point = s_rank - np.searchsorted(e_sorted, times, side="left")
    seg = s_rank - np.searchsorted(e_sorted, times, side="right")
    seg[-1] = 0  # nothing extends past the last breakpoint
    gaps = np.diff(times)
    measure = float(np.sum(gaps[seg[:-1] > 0]))
    dpoint = dseg = None
    if demands is not None:
        # Demand-weighted rank counting: prefix sums of demands over the
        # endpoint lists, sorted by (coordinate, demand) to match the
        # sequential reference bit for bit even with float demands.
        s_order = np.lexsort((demands, starts))
        e_order = np.lexsort((demands, ends))
        s_coords = starts[s_order]
        e_coords = ends[e_order]
        s_cum = np.concatenate([[0.0], np.cumsum(demands[s_order])])
        e_cum = np.concatenate([[0.0], np.cumsum(demands[e_order])])
        dpoint_arr = (
            s_cum[np.searchsorted(s_coords, times, side="right")]
            - e_cum[np.searchsorted(e_coords, times, side="left")]
        )
        dseg_arr = (
            s_cum[np.searchsorted(s_coords, times, side="right")]
            - e_cum[np.searchsorted(e_coords, times, side="right")]
        )
        dseg_arr[-1] = 0.0
        if np.all(demands == np.floor(demands)):
            dpoint = [int(v) for v in np.rint(dpoint_arr).tolist()]
            dseg = [int(v) for v in np.rint(dseg_arr).tolist()]
        else:
            dpoint = dpoint_arr.tolist()
            dseg = dseg_arr.tolist()
    return (
        times.tolist(),
        point.tolist(),
        seg.tolist(),
        dpoint,
        dseg,
        measure,
    )


def machine_peaks(
    starts: np.ndarray,
    ends: np.ndarray,
    demands: Optional[np.ndarray] = None,
) -> Tuple[int, float, float]:
    """``(peak_load, peak_demand, measure)`` of one machine's job set.

    One lexsort + cumsum sweep over start/end events with closed-interval
    semantics (starts before ends at equal coordinates).  This is the
    vectorized counterpart of the :mod:`busytime.core.intervals` oracles
    (``max_point_load``, ``max_point_demand``, ``span``) — computed from the
    raw arrays, never from a profile — so ``verify_schedule(mode="batch")``
    stays an independent check of the fast-path machine state.
    """
    n = len(starts)
    if n == 0:
        return 0, 0.0, 0.0
    times = np.concatenate([starts, ends])
    kinds = np.concatenate(
        [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
    )
    order = np.lexsort((kinds, times))
    t_ord = times[order]
    delta = np.where(kinds[order] == 0, 1, -1)
    active = np.cumsum(delta)
    peak_load = int(active.max())
    measure = float(np.sum(np.diff(t_ord)[active[:-1] > 0]))
    if demands is None:
        return peak_load, float(peak_load), measure
    ddelta = np.concatenate([demands, -demands])[order]
    peak_demand = float(np.cumsum(ddelta).max())
    return peak_load, peak_demand, measure


#: The most machines the saturation kernel can encode: masks widen from
#: int32 to int64 once machine 31 opens; beyond 63 machines (bit 62 is the
#: highest an int64 mask carries with the sign bit unused) the kernel bails
#: out (callers fall back to the per-job builder path).
MAX_BITMASK_MACHINES = 63


def first_fit_assign(
    starts: np.ndarray,
    ends: np.ndarray,
    ids: np.ndarray,
    g: int,
) -> Optional[Tuple[List[int], List[int], int]]:
    """Longest-first FirstFit over unit-demand jobs, vectorized per query.

    Returns ``(order, assign, num_machines)`` where ``order`` lists job
    *positions* in processing order (non-increasing length, ties by start
    then id — exactly :func:`busytime.algorithms.first_fit.first_fit_order`)
    and ``assign[pos]`` is the machine index of the job at input position
    ``pos``; or ``None`` when more than :data:`MAX_BITMASK_MACHINES`
    machines open and the caller must fall back.

    How it stays exact: all endpoints are coordinate-compressed to the grid
    of distinct breakpoints.  Because every placed job's endpoints lie on
    the grid, a job covering any part of an open segment between adjacent
    breakpoints also covers both breakpoints, so the peak load inside a
    job's closed window is always attained *at a breakpoint* — checking the
    breakpoints inside the window suffices, exactly as ``SweepProfile``'s
    ``max_load_in`` does.  Per machine the kernel keeps an int8 load row
    over the grid; ``sat[p]`` packs "machine t is saturated (load == g) at
    breakpoint p" bits, so the FirstFit scan over *all* machines collapses
    to one ``bitwise_or.reduce`` over the window plus a lowest-zero-bit
    step, independent of the machine count.
    """
    n = len(starts)
    order_arr = np.lexsort((ids, starts, starts - ends))
    coords, inv = np.unique(
        np.concatenate([starts, ends]), return_inverse=True
    )
    lo = inv[:n].tolist()
    hi = (inv[n:] + 1).tolist()  # exclusive upper breakpoint index
    num_points = len(coords)
    or_reduce = np.bitwise_or.reduce
    sat = np.zeros(num_points, dtype=np.int32)
    cap = 30  # highest machine bit an int32 mask can carry (sign bit unused)
    rows: List[np.ndarray] = []
    assign = [0] * n
    num_machines = 0
    order = order_arr.tolist()
    for j in order:
        left = lo[j]
        right = hi[j]
        mask = int(or_reduce(sat[left:right]))
        target = (~mask & (mask + 1)).bit_length() - 1 if mask else 0
        if target >= num_machines:
            if target > cap:
                if cap == 30:
                    sat = sat.astype(np.int64)
                    cap = MAX_BITMASK_MACHINES - 1
                else:
                    return None
            rows.append(np.zeros(num_points, dtype=np.int8))
            num_machines += 1
        window = rows[target][left:right]
        window += 1
        if window.max() == g:
            sat[left:right] |= (window == g) * (1 << target)
        assign[j] = target
    return order, assign, num_machines
