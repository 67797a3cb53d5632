"""Checks on every `wsh` output the benchmark produces.

An invocation passes when it exits 0, its report parses, the free ranks
match the classical Betti numbers where the workload knows them, and, for
the default seed, the report's digest matches the one recorded in
digests.json (reports must stay byte-identical).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

_MODULE_LINE = re.compile(r"^H_(\d+) = (.*)$")


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]


def load_digests(workload: str) -> dict:
    return json.loads(DIGESTS.read_text())[workload]


def free_ranks(report: str, is_json: bool) -> list:
    """Free rank per reported dimension, in report order."""
    if is_json:
        return [d["free_rank"] for d in json.loads(report)["dimensions"]]
    ranks = []
    for line in report.splitlines():
        m = _MODULE_LINE.match(line)
        if m:
            ranks.append(m.group(2).split(" (+) ").count("R"))
    return ranks


def problem(inv, code: int, report: str, want_digest: str | None) -> str | None:
    """Why this output is wrong, or None when it passes every check."""
    if code != 0:
        last = report.strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {last[0]}"
    try:
        ranks = free_ranks(report, inv.json)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {e}"
    if not ranks:
        return "report lists no homology module"
    if inv.free is not None and tuple(ranks) != inv.free:
        return f"free ranks {ranks}, expected {list(inv.free)}"
    if want_digest is not None and digest(report) != want_digest:
        return f"report digest {digest(report)}, recorded {want_digest}"
    return None
