"""The seeded request stream of the ``serve-mixed`` workload.

The stream is synthetic: no log of real use of the service exists.  Its
parts are taken from the program itself, and each ratio is the simplest
choice that gives every latency class enough samples:

* Workloads: every workload of the tiny suite (``TINY_SUITE``), ``IS-tiny``
  included, although its fresh jobs take several times longer than the
  others.
* Kinds: a ``ProfileRequest`` and ``RunRequest`` schemes ``baseline``,
  ``apt-get`` and ``aj`` -- the measurements the experiment drivers make
  (``profile_workload``, ``run_baseline``, ``run_apt_get``,
  ``run_ainsworth_jones``) and the kinds the serve CI drills submit.
* ``aj`` distances: those of the fig2 distance sweep, 1 to 64.
* Engines: the server's default and ``turbo``, the tier sweeps default to.

That is 5 x 2 x (1 + 2 + 7) = 100 distinct requests.  Every request is
sent once as a *fresh* request (its key is new to the server, so the agent
must execute it) and once more as a *hit* (the server answers it from the
finished job, with no agent execution): a repeat share of one half, which
gives each class 100 samples per run, enough for 10 to lie beyond its p90.
The seed only orders the stream and splits it between the clients, so
every seed sends the same multiset of work.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("BFS-tiny", "HJ8-tiny", "IS-tiny", "randAccess-tiny", "micro-tiny")
#: ``None`` is the server's default engine.
ENGINES = (None, "turbo")
AJ_DISTANCES = (1, 2, 4, 8, 16, 32, 64)
REPEATS = 1
CLIENTS = 2

#: A request outside the stream, run once before timing so the agent has
#: finished importing when the first measured request arrives.
CANARY = {
    "kind": "RunRequest", "v": 1, "workload": "randAccess-tiny",
    "scale": "tiny", "scheme": "baseline", "distance": 32,
    "engine": "translate", "trace": None,
}


def _run(workload, engine, scheme, distance=32):
    return {
        "kind": "RunRequest", "v": 1, "workload": workload, "scale": "tiny",
        "scheme": scheme, "distance": distance, "engine": engine,
        "trace": None,
    }


def pool() -> list[dict]:
    """Every distinct request payload, in a fixed order."""
    requests = []
    for workload in WORKLOADS:
        for engine in ENGINES:
            requests.append({
                "kind": "ProfileRequest", "v": 1, "workload": workload,
                "scale": "tiny", "engine": engine, "trace": None,
            })
            requests.append(_run(workload, engine, "baseline"))
            requests.append(_run(workload, engine, "apt-get"))
            for distance in AJ_DISTANCES:
                requests.append(_run(workload, engine, "aj", distance))
    return requests


def request_id(payload: dict) -> str:
    """Canonical text of a request payload (the golden-file key)."""
    return json.dumps(payload, sort_keys=True)


def client_streams(
    seed: int, replica: int = 0,
) -> list[list[tuple[str, dict]]]:
    """One list of ``(expected class, payload)`` per client.

    Each client owns a disjoint half of the pool and repeats only keys
    it has already sent; with a closed loop that request has finished,
    so a repeat is always answered from a done job.  Each replica of a
    run gets its own order, so a run's latencies do not all hang on one
    interleaving of slow and fast jobs.
    """
    rng = random.Random(f"{seed}:{replica}")
    requests = pool()
    rng.shuffle(requests)
    streams = []
    for client in range(CLIENTS):
        fresh = requests[client::CLIENTS]
        repeats_left = {index: REPEATS for index in range(len(fresh))}
        remaining_repeats = REPEATS * len(fresh)
        sent: list[int] = []
        stream: list[tuple[str, dict]] = []
        next_fresh = 0
        while next_fresh < len(fresh) or remaining_repeats:
            available = [i for i in sent if repeats_left[i]]
            fresh_left = len(fresh) - next_fresh
            take_fresh = fresh_left and (
                not available
                or rng.random() < fresh_left / (fresh_left + remaining_repeats)
            )
            if take_fresh:
                stream.append(("fresh", fresh[next_fresh]))
                sent.append(next_fresh)
                next_fresh += 1
            else:
                pick = rng.choice(available)
                repeats_left[pick] -= 1
                remaining_repeats -= 1
                stream.append(("hit", fresh[pick]))
        streams.append(stream)
    return streams
