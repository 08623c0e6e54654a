#!/usr/bin/env python3
"""Verify collector reconciliation invariants on a metrics snapshot.

Usage: check_metrics.py SNAPSHOT.json EXPECTED_INGESTED
       check_metrics.py --per-tenant SNAPSHOT.json NAME=EXPECTED [...]

Reads the JSON snapshot written by `sldigest --metrics-out` and checks
the collector accounting identities documented in DESIGN.md section 9:

  accepted == released + buffered          (no record vanishes)
  accepted + late + malformed + duplicates == EXPECTED_INGESTED

Every histogram series carrying p50/p99 fields is additionally
range-checked: when count > 0, 0 <= p50 <= p99 <= last finite bucket
bound (the +Inf bucket clamps there by construction).

EXPECTED_INGESTED is the number of records offered to the collector
(for `sldigest stream` runs, the archive size).

In --per-tenant mode the snapshot comes from a multi-tenant
`sldigest serve` run: every collector series must carry a tenant label,
the identities must hold within each named tenant separately, and the
per-tenant totals must also reconcile when summed (the whole-process
view a dashboard aggregates to).  Exits non-zero with a diagnostic on
any violation.
"""

import json
import sys

COLLECTOR_SERIES = (
    "collector_accepted_total",
    "collector_released_total",
    "collector_reorder_buffer_depth",
    "collector_late_total",
    "collector_malformed_total",
    "collector_duplicate_total",
)


def check_histogram_quantiles(path, failures):
    """p50/p99 sanity for every histogram series in the snapshot."""
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    for series in snapshot["series"]:
        if series["type"] != "histogram":
            continue
        name = series["name"]
        if "p50" not in series or "p99" not in series:
            failures.append(f"histogram {name} missing p50/p99 fields")
            continue
        if series.get("count", 0) == 0:
            continue
        p50, p99 = series["p50"], series["p99"]
        finite = [b["le"] for b in series["buckets"] if b["le"] != "+Inf"]
        top = finite[-1] if finite else 0.0
        if not 0.0 <= p50 <= p99 <= top:
            failures.append(
                f"histogram {name}: expected 0 <= p50 ({p50}) <= "
                f"p99 ({p99}) <= {top}"
            )


def load_totals(path, by_tenant):
    """name -> value, or (tenant, name) -> value when by_tenant."""
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    totals = {}
    unlabeled = []
    for series in snapshot["series"]:
        if series["type"] == "histogram":
            continue
        name = series["name"]
        if by_tenant:
            tenant = series.get("labels", {}).get("tenant")
            if tenant is None:
                if name in COLLECTOR_SERIES:
                    unlabeled.append(name)
                continue
            key = (tenant, name)
        else:
            key = name
        totals[key] = totals.get(key, 0) + series["value"]
    return totals, unlabeled


def reconcile(get, expected, failures, who=""):
    tag = f"[{who}] " if who else ""
    accepted = get("collector_accepted_total")
    released = get("collector_released_total")
    buffered = get("collector_reorder_buffer_depth")
    late = get("collector_late_total")
    malformed = get("collector_malformed_total")
    duplicates = get("collector_duplicate_total")

    if accepted != released + buffered:
        failures.append(
            f"{tag}accepted ({accepted}) != released ({released}) "
            f"+ buffered ({buffered})"
        )
    ingested = accepted + late + malformed + duplicates
    if expected is not None and ingested != expected:
        failures.append(
            f"{tag}accepted ({accepted}) + late ({late}) "
            f"+ malformed ({malformed}) + duplicates ({duplicates}) "
            f"= {ingested}, expected {expected}"
        )
    if accepted == 0 and malformed == 0:
        failures.append(f"{tag}no traffic counted -- metrics not wired through")
    return (
        f"{tag}accepted={accepted} released={released} buffered={buffered} "
        f"late={late} malformed={malformed} duplicates={duplicates}"
    )


def main() -> int:
    args = sys.argv[1:]
    per_tenant = bool(args) and args[0] == "--per-tenant"
    if per_tenant:
        args = args[1:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = args[0]
    failures = []
    lines = []
    check_histogram_quantiles(path, failures)

    if not per_tenant:
        totals, _ = load_totals(path, by_tenant=False)
        lines.append(
            reconcile(lambda n: totals.get(n, 0), int(args[1]), failures)
        )
    else:
        totals, unlabeled = load_totals(path, by_tenant=True)
        for name in unlabeled:
            failures.append(f"collector series without tenant label: {name}")
        summed = {}
        total_expected = 0
        for spec in args[1:]:
            tenant, _, count = spec.partition("=")
            expected = int(count)
            total_expected += expected
            lines.append(
                reconcile(
                    lambda n, t=tenant: totals.get((t, n), 0),
                    expected,
                    failures,
                    who=tenant,
                )
            )
        for (tenant, name), value in totals.items():
            summed[name] = summed.get(name, 0) + value
        lines.append(
            reconcile(
                lambda n: summed.get(n, 0), total_expected, failures,
                who="sum",
            )
        )

    if failures:
        for f in failures:
            print(f"RECONCILE FAIL: {f}", file=sys.stderr)
        return 1
    for line in lines:
        print(f"reconciled: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
