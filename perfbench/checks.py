"""Output checks of the benchmark, and a self-test showing each can fail.

Every check returns a list of failure messages; an empty list is a pass.
``self_test`` feeds each check one right and one deliberately wrong output
and fails unless the check passes the first and rejects the second.
"""

from __future__ import annotations

import math

import numpy as np

KIND_TARGET = 1  # repro.data.schema.KIND_TARGET


def check_parity(pipe_scores, pipe_routing, ref_scores, ref_routing):
    """Pipeline scores and routing are bitwise equal to ``TargAD.score_batch``."""
    out = []
    if np.asarray(pipe_scores).tobytes() != np.asarray(ref_scores).tobytes():
        out.append("pipeline scores differ from TargAD.score_batch on the probe batch")
    if not np.array_equal(pipe_routing, ref_routing):
        out.append("pipeline routing differs from TargAD.score_batch on the probe batch")
    return out


def check_clean_serving(quarantined_rows, degraded_batches):
    """Clean traffic quarantines no row and is never served degraded."""
    out = []
    if quarantined_rows:
        out.append(f"{quarantined_rows} row(s) quarantined on clean traffic")
    if degraded_batches:
        out.append(f"{degraded_batches} batch(es) served degraded on clean traffic")
    return out


def check_alert_routing(alerts, routing):
    """Every alert is routed as a target anomaly."""
    alerts = np.asarray(alerts, dtype=np.int64)
    bad = int(np.sum(np.asarray(routing)[alerts] != KIND_TARGET)) if len(alerts) else 0
    return [f"{bad} alert(s) not routed as target"] if bad else []


def check_losses(losses, epochs):
    """One finite loss per classifier epoch."""
    out = []
    if len(losses) != epochs:
        out.append(f"{len(losses)} epoch losses, expected {epochs}")
    if not all(math.isfinite(v) for v in losses):
        out.append("non-finite epoch loss")
    return out


def check_candidates(n_candidates, alpha, pool_size):
    """The alpha cut keeps round(alpha * pool) candidates (at least one)."""
    expected = max(int(round(alpha * pool_size)), 1)
    if n_candidates != expected:
        return [f"{n_candidates} candidates, alpha cut gives {expected}"]
    return []


def check_cycles(cycles, swaps, rollbacks, confirmed):
    """Each confirmed drift event ran one cycle, which swapped or rolled back."""
    out = []
    if cycles != swaps + rollbacks:
        out.append(f"{cycles} cycles but {swaps} swaps + {rollbacks} rollbacks")
    if cycles != confirmed:
        out.append(f"{cycles} cycles but {confirmed} confirmed drift events")
    return out


def check_repeat(counts, earlier):
    """Counts that must repeat exactly match every earlier run of the same key."""
    out = []
    for record in earlier:
        for name, value in counts.items():
            if name in record and record[name] != value:
                out.append(f"count {name}={value} differs from an earlier run ({record[name]})")
    return out


def self_test():
    """Return the names of checks that failed to reject a wrong output."""
    scores = np.array([0.1, 0.7, 0.4])
    routing = np.array([0, 1, 2])
    nudged = scores.copy()
    nudged[1] = np.nextafter(nudged[1], 1.0)
    cases = {
        "parity": (check_parity(scores, routing, scores.copy(), routing.copy()),
                   check_parity(nudged, routing, scores, routing)),
        "parity_routing": (check_parity(scores, routing, scores, routing),
                           check_parity(scores, routing[::-1], scores, routing)),
        "clean_serving": (check_clean_serving(0, 0), check_clean_serving(1, 0)),
        "degraded": (check_clean_serving(0, 0), check_clean_serving(0, 1)),
        "alert_routing": (check_alert_routing([1], routing), check_alert_routing([2], routing)),
        "losses": (check_losses([1.0] * 3, 3), check_losses([1.0, float("nan"), 1.0], 3)),
        "loss_count": (check_losses([1.0] * 3, 3), check_losses([1.0] * 2, 3)),
        "candidates": (check_candidates(313, 0.05, 6263), check_candidates(312, 0.05, 6263)),
        "cycles": (check_cycles(3, 2, 1, 3), check_cycles(3, 2, 0, 3)),
        "repeat": (check_repeat({"k": 5}, [{"k": 5}]), check_repeat({"k": 5}, [{"k": 4}])),
    }
    return [name for name, (good, bad) in cases.items() if good or not bad]
