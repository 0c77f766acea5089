"""Baseline workflow for nebula-lint.

A baseline file freezes the currently-accepted findings so the lint
gate only fails on *new* violations.  The file maps each finding
fingerprint to the number of occurrences accepted — duplicate
identical lines in one file share a fingerprint, so counts matter.

Baselines (``"version": 2``) key each entry by the (rule, path,
enclosing-def, normalized-snippet) fingerprint (see
:attr:`repro.analysis.findings.Finding.fingerprint`).

Typical flow::

    python -m repro.analysis src --write-baseline lint-baseline.json
    # ... later, in CI ...
    python -m repro.analysis src --baseline lint-baseline.json
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from .findings import Finding

BASELINE_VERSION = 2


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    counts = Counter(f.fingerprint for f in findings)
    payload = {
        "version": BASELINE_VERSION,
        "tool": "nebula-lint",
        "fingerprints": dict(sorted(counts.items())),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, int]:
    """fingerprint -> accepted count."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "fingerprints" not in payload:
        raise ValueError(f"{path}: not a nebula-lint baseline file")
    fingerprints = payload["fingerprints"]
    if not isinstance(fingerprints, dict):
        raise ValueError(f"{path}: malformed 'fingerprints' mapping")
    return {str(k): int(v) for k, v in fingerprints.items()}


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> List[Finding]:
    """Findings not covered by the baseline (new violations).

    Each baselined fingerprint absorbs up to its accepted count; any
    excess occurrences — the same bad pattern introduced again — are
    reported.
    """
    budget = Counter(baseline)
    fresh: List[Finding] = []
    for finding in findings:
        if budget[finding.fingerprint] > 0:
            budget[finding.fingerprint] -= 1
        else:
            fresh.append(finding)
    return fresh
