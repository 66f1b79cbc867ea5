#!/usr/bin/env python3
"""Compare a BENCH_*.json report against a committed baseline.

Fails (exit 1) when any watched phase's wall_ms regressed by more than
the threshold versus the baseline. Used by CI after `bench_smoke` so a
perf regression in the simulation core fails the pull request, not a
reader of next month's numbers.

Usage:
  scripts/bench_compare.py BASELINE CURRENT [--threshold 0.20]
                           [--phases metric_repair] [--update]
  scripts/bench_compare.py BASELINE CURRENT --derived n --threshold 0.05
  scripts/bench_compare.py BASELINE CURRENT \
      --require "blackout_tiers_gini_over_meridian>=1.05" \
      --require "loss30_meridian_p_exact>=0.5"

--phases takes comma-separated name prefixes; default watches the
metric_repair phases (the core hot path). --update rewrites BASELINE
from CURRENT instead of comparing (for refreshing the committed
numbers after an intentional change; commit the result).

--derived switches to comparing the report's "derived" metrics
(accuracy/traffic scalars) instead of phase wall times: every baseline
metric whose name starts with one of the comma-separated prefixes must
be present in the current report and agree within the threshold
(relative, both directions — derived metrics are deterministic, so a
shift either way means the simulation changed, unlike wall-ms which
only regresses). Use this for gates that must be robust across
machines of different speeds. Key sets must match exactly under the
watched prefixes: a baseline metric missing from the current report
AND a current metric missing from the baseline are both hard failures
— either direction of schema drift would otherwise shrink the watched
set and silently disarm the gate (regenerate the baseline with
--update after an intentional schema change).

Malformed reports exit 2 and name the offending key: a duplicate key
anywhere in either file (json.load would silently keep the last one),
or a gated derived value that is not a number (Reporter writes null
for NaN/inf).

--require (repeatable) asserts an absolute bound on a derived metric
of the CURRENT report: "name>=value", "name>value", "name<=value" or
"name<value". Unlike --derived this gates a property, not drift — use
it for invariants a refactor must never silently lose (e.g. the
blackout Gini gap staying > 1). When --require is given without
--derived, the phase wall-time comparison is skipped.

--np-run switches the input format: the single REPORT argument is an
np_run scenario report (NP_RUN_*.json), not a bench report, and its
per-algorithm metrics are flattened into derived-style keys that
--require can gate directly:

  scripts/bench_compare.py --np-run NP_RUN_zipf_hotspot.json \
      --require "meridian_load_gini_max<=0.6"

Flattened keys per algorithm: run-level scalars
(<algo>_messages_per_query, <algo>_maintenance_per_event,
<algo>_failed_queries, and <algo>_load_{total,max,median,gini} when the
run tracked load) plus <algo>_<field>_{min,max,mean} over the epochs
for every numeric per-epoch field (p_exact_closest, p_query_failed,
load_gini, p_exact_reachable, ...). Only --require composes with
--np-run; there is no baseline.
"""

import argparse
import json
import numbers
import sys


class MalformedReport(Exception):
    """A report the gate cannot trust; main() exits 2 with its message."""


def reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedReport(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f, object_pairs_hook=reject_duplicate_keys)
        except MalformedReport as e:
            raise MalformedReport(f"{path}: {e}") from None


def check_numeric(derived, names, source):
    """Raises on a non-numeric value (Reporter writes null for NaN/inf)."""
    for name in names:
        value = derived[name]
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise MalformedReport(
                f"{source} derived metric {name!r} is not a number: "
                f"{value!r}")


def phases_by_name(report):
    return {phase["name"]: phase for phase in report.get("phases", [])}


def percent(fraction):
    """0.001 -> '0.1%': a tolerance must never print as 0%."""
    return f"{fraction * 100:g}%"


def compare_derived(baseline, current, args):
    prefixes = [p for p in args.derived.split(",") if p]
    base = baseline.get("derived", {})
    cur = current.get("derived", {})
    watched = sorted(
        name
        for name in base
        if any(name.startswith(prefix) for prefix in prefixes)
    )
    if not watched:
        print(
            f"bench_compare: no baseline derived metric matches prefixes "
            f"{prefixes}",
            file=sys.stderr,
        )
        return 2

    check_numeric(base, watched, "baseline")
    check_numeric(
        cur,
        [n for n in cur if any(n.startswith(prefix) for prefix in prefixes)],
        "current",
    )

    failures = []
    width = max(len(name) for name in watched)
    print(f"bench_compare: derived metrics, tolerance "
          f"±{percent(args.threshold)}, {len(watched)} watched metric(s)")
    for name in watched:
        base_value = base[name]
        if name not in cur:
            failures.append(f"{name}: missing from current report")
            print(f"  {name:<{width}}  baseline {base_value:12.4f}  MISSING")
            continue
        cur_value = cur[name]
        scale = max(abs(base_value), abs(cur_value))
        signed_rel = (cur_value - base_value) / scale if scale > 0 else 0.0
        verdict = "ok"
        if abs(signed_rel) > args.threshold:
            verdict = "DIVERGED"
            failures.append(
                f"{name}: {base_value:.6g} -> {cur_value:.6g} "
                f"({signed_rel:+.1%})"
            )
        print(
            f"  {name:<{width}}  baseline {base_value:12.4f}  "
            f"current {cur_value:12.4f}  ({signed_rel:+6.1%})  {verdict}"
        )

    # Symmetric drift check: a current metric under a watched prefix
    # that the baseline does not know is the same schema-drift hazard
    # as a missing one — were the baseline ever regenerated from such
    # a report, the unknown key would join the gate unreviewed (and a
    # rename would shrink the watched set to the surviving keys).
    unknown = sorted(
        name
        for name in cur
        if any(name.startswith(prefix) for prefix in prefixes)
        and name not in base
    )
    for name in unknown:
        failures.append(
            f"{name}: in current report but not in baseline "
            f"(schema drift; regenerate the baseline with --update if "
            f"intentional)"
        )
        print(f"  {name}  current {cur[name]:12.4f}  NOT-IN-BASELINE")

    if failures:
        print("bench_compare: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench_compare: ok")
    return 0


def parse_requirement(spec):
    for op in (">=", "<=", ">", "<"):  # two-char ops first
        if op in spec:
            name, _, raw = spec.partition(op)
            name = name.strip()
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"bad requirement value in {spec!r}")
            if not name:
                raise ValueError(f"bad requirement name in {spec!r}")
            return name, op, value
    raise ValueError(
        f"requirement {spec!r} has no comparator (use >=, >, <= or <)"
    )


def check_requirements(current, specs):
    ops = {
        ">=": lambda a, b: a >= b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        "<": lambda a, b: a < b,
    }
    derived = current.get("derived", {})
    failures = []
    print(f"bench_compare: {len(specs)} required bound(s)")
    for spec in specs:
        name, op, bound = parse_requirement(spec)
        if name not in derived:
            failures.append(f"{name}: missing from current report")
            print(f"  {name} {op} {bound:g}  MISSING")
            continue
        check_numeric(derived, [name], "current")
        value = derived[name]
        ok = ops[op](value, bound)
        print(f"  {name} = {value:.6g}  (required {op} {bound:g})  "
              f"{'ok' if ok else 'VIOLATED'}")
        if not ok:
            failures.append(f"{name}: {value:.6g} violates {op} {bound:g}")
    if failures:
        print("bench_compare: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def flatten_np_run(report):
    """Per-algorithm derived-style metrics from an np_run report."""
    derived = {}
    for algo in report.get("algorithms", []):
        name = algo["name"]
        for key in ("messages_per_query", "maintenance_per_event"):
            if key in algo:
                derived[f"{name}_{key}"] = float(algo[key])
        if "fault" in algo:
            derived[f"{name}_failed_queries"] = float(
                algo["fault"].get("failed_queries", 0))
        for key, value in algo.get("load", {}).items():
            derived[f"{name}_load_{key}"] = float(value)
        epochs = algo.get("epochs", [])
        fields = sorted({
            field
            for epoch in epochs
            for field, value in epoch.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        })
        for field in fields:
            values = [float(e[field]) for e in epochs if field in e]
            if not values:
                continue
            derived[f"{name}_{field}_min"] = min(values)
            derived[f"{name}_{field}_max"] = max(values)
            derived[f"{name}_{field}_mean"] = sum(values) / len(values)
    return derived


def main():
    try:
        return run()
    except MalformedReport as e:
        print(f"bench_compare: malformed report: {e}", file=sys.stderr)
        return 2


def run():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?", default=None)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed relative wall_ms regression (default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--phases",
        default="metric_repair",
        help="comma-separated phase-name prefixes to watch",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite BASELINE from CURRENT instead of comparing",
    )
    parser.add_argument(
        "--derived",
        default=None,
        metavar="PREFIXES",
        help="compare 'derived' metrics matching these comma-separated "
        "name prefixes (relative, both directions) instead of phase "
        "wall times",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="BOUND",
        help="assert an absolute bound on a derived metric of CURRENT, "
        'e.g. --require "blackout_tiers_gini_over_meridian>=1.05"; '
        "repeatable, all bounds must hold",
    )
    parser.add_argument(
        "--np-run",
        action="store_true",
        help="treat the single REPORT argument as an np_run scenario "
        "report and gate --require bounds on its flattened "
        "per-algorithm metrics (no baseline)",
    )
    args = parser.parse_args()

    if args.np_run:
        if args.current is not None or args.update or args.derived:
            print(
                "bench_compare: --np-run takes a single report and only "
                "composes with --require",
                file=sys.stderr,
            )
            return 2
        if not args.require:
            print(
                "bench_compare: --np-run needs at least one --require bound",
                file=sys.stderr,
            )
            return 2
        flattened = {"derived": flatten_np_run(load(args.baseline))}
        return check_requirements(flattened, args.require)

    if args.current is None:
        print("bench_compare: CURRENT report argument is required",
              file=sys.stderr)
        return 2

    current = load(args.current)

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
        print(f"bench_compare: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    baseline = load(args.baseline)
    if baseline.get("scale") != current.get("scale"):
        print(
            f"bench_compare: scale mismatch (baseline "
            f"{baseline.get('scale')!r} vs current {current.get('scale')!r});"
            f" regenerate the baseline at the same NP_BENCH_SCALE",
            file=sys.stderr,
        )
        return 2

    require_status = 0
    if args.require:
        require_status = check_requirements(current, args.require)

    if args.derived is not None:
        return compare_derived(baseline, current, args) or require_status
    if args.require:
        return require_status

    prefixes = [p for p in args.phases.split(",") if p]
    base_phases = phases_by_name(baseline)
    cur_phases = phases_by_name(current)

    watched = sorted(
        name
        for name in base_phases
        if any(name.startswith(prefix) for prefix in prefixes)
    )
    if not watched:
        print(
            f"bench_compare: no baseline phase matches prefixes {prefixes}",
            file=sys.stderr,
        )
        return 2

    failures = []
    width = max(len(name) for name in watched)
    print(f"bench_compare: threshold +{percent(args.threshold)}, "
          f"{len(watched)} watched phase(s)")
    for name in watched:
        base_ms = base_phases[name]["wall_ms"]
        cur = cur_phases.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current report")
            print(f"  {name:<{width}}  baseline {base_ms:10.1f} ms  MISSING")
            continue
        cur_ms = cur["wall_ms"]
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_ms:.1f} ms -> {cur_ms:.1f} ms "
                f"({ratio - 1.0:+.1%})"
            )
        print(
            f"  {name:<{width}}  baseline {base_ms:10.1f} ms  "
            f"current {cur_ms:10.1f} ms  ({ratio - 1.0:+6.1%})  {verdict}"
        )

    if failures:
        print("bench_compare: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench_compare: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
