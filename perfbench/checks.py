"""Output and accounting checks; their failures make up ``error_rate``."""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Tuple

#: Where an input can end up.  Every input is exactly one of these.
OUTCOMES = (
    "drained",  # left its lane into the graph (delivered or consumed)
    "dropped",  # evicted from a full lane
    "discarded",  # pending in a lane when its device left
    "pending",  # still in a lane: 0 once a replay ends
    "rejected",  # dead-lettered by the gateway (the planted payloads)
    "shed",  # dead-lettered at the gateway's admission boundary
    "rate_limited",  # refused by the gateway's token bucket
    "gateway_pending",  # admitted but never forwarded: 0 once a replay ends
)


def accounting_gap(counts: Dict[str, int]) -> int:
    """Inputs minus every accounted outcome; 0 when nothing is lost
    or counted twice."""
    return counts["inputs"] - sum(counts[key] for key in OUTCOMES)


def refused(counts: Dict[str, int]) -> int:
    """Inputs the system turned away under load (lane drops + sheds)."""
    return counts["dropped"] + counts["shed"] + counts["rate_limited"]


def check(
    counts: Dict[str, int], rows: Counter, reference: Counter
) -> Tuple[int, List[str]]:
    """Count inputs and outputs that fail a check; returns the count and
    one line per failed check.

    The checks: the accounting identity holds, the gateway rejected
    exactly the planted payloads, nothing is left pending, every drained
    edge datum reached the application sink and every raised alert the
    alert sink, and the sink multiset equals the reference's.
    """
    problems: List[str] = []
    failed = 0

    def fail(amount: int, message: str) -> None:
        nonlocal failed
        if amount:
            failed += abs(amount)
            problems.append(message)

    gap = accounting_gap(counts)
    fail(gap, f"accounting: inputs - outcomes = {gap} ({counts})")
    fail(
        counts["rejected"] - counts["planted"],
        f"gateway rejected {counts['rejected']}, planted {counts['planted']}",
    )
    fail(
        counts["pending"] + counts["gateway_pending"],
        f"{counts['pending'] + counts['gateway_pending']} datums left pending",
    )
    if "alerts" in counts:
        fail(
            counts["delivered"] - counts["drained"],
            f"app sink got {counts['delivered']} of {counts['drained']} drained",
        )
        fail(
            counts["alerts"] - counts["alerts_raised"],
            f"alert sink got {counts['alerts']} of {counts['alerts_raised']}",
        )
    missing = reference - rows
    extra = rows - reference
    fail(
        sum(missing.values()) + sum(extra.values()),
        f"sink multiset differs from the reference: {sum(missing.values())}"
        f" missing, {sum(extra.values())} extra",
    )
    return failed, problems


def digest(rows: Counter) -> str:
    """A short, order-free fingerprint of a sink multiset."""
    hasher = hashlib.sha256()
    for row, count in sorted((repr(row), count) for row, count in rows.items()):
        hasher.update(f"{row}*{count}\n".encode())
    return hasher.hexdigest()[:16]
