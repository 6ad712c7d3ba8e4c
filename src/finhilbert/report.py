"""Deterministic JSON / CSV writers for verification reports.

Output is byte-identical for a fixed (seed, nodes) apart from the
``generated_at`` timestamp field.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone

FIELDS = ("check_id", "claim", "computed", "expected", "tolerance", "pass")


def report_payload(rows, meta=None):
    payload = {
        "meta": dict(sorted((meta or {}).items())),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "checks": [
            {k: r[k] for k in FIELDS} for r in sorted(rows, key=lambda r: r["check_id"])
        ],
        "passed": all(r["pass"] for r in rows),
    }
    return payload


def to_json(rows, meta=None):
    return json.dumps(report_payload(rows, meta), sort_keys=True, indent=1)


def to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(FIELDS)
    for r in sorted(rows, key=lambda r: r["check_id"]):
        writer.writerow([r["check_id"], r["claim"], repr(r["computed"]),
                         repr(r["expected"]), repr(r["tolerance"]),
                         "pass" if r["pass"] else "fail"])
    return buf.getvalue()


def write_report(rows, path, fmt="json", meta=None):
    text = to_json(rows, meta) if fmt == "json" else to_csv(rows)
    with open(path, "w") as fh:
        fh.write(text)
    return text
