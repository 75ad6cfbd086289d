"""A fixed workload that gauges how fast the host runs Python right now.

A shared host can run the same code at half its usual speed for minutes at a
time, in CPU time as well as in wall time: a busy neighbour on the same
physical core or cache slows every instruction, and no clock leaves that
out.  The benchmark runs this reference between chunks of requests and
scales the server's timings to the speed it measures (see
``perfbench/README.md``).

The reference uses the standard library only, never busytime, so no change
to busytime moves it.  It mixes what the server does most: building job
documents, JSON encoding and decoding, sorting and plain bytecode.
"""

from __future__ import annotations

import gc
import json
import time
from operator import itemgetter
from typing import Dict, List

#: Jobs in the reference document.
JOBS = 3000


def _document() -> Dict[str, object]:
    jobs: List[Dict[str, object]] = []
    for k in range(JOBS):
        start = (k * 7919) % 10007 / 64.0
        jobs.append({"id": 100_000 + k, "start": start, "end": start + (k % 97) / 8.0 + 1.0,
                     "weight": 1.0, "tag": None, "demand": 1 + k % 3})
    return {"format": "reference", "g": 4, "jobs": jobs}


def reference_seconds() -> float:
    """CPU time of one pass of the reference work in this process.

    The garbage collector is held off during the pass: a collection would
    walk the caller's heap, whose size depends on the workload.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        doc = json.loads(json.dumps(_document()))
        jobs = sorted(doc["jobs"], key=itemgetter("start", "id"))
        machines: List[float] = []
        for job in jobs:
            # first fit by end time
            for m, free_at in enumerate(machines):
                if free_at <= job["start"]:
                    machines[m] = job["end"]
                    break
            else:
                machines.append(job["end"])
        json.dumps({"machines": machines, "jobs": [job["id"] for job in jobs]})
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()
