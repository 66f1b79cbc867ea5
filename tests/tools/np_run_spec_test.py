#!/usr/bin/env python3
"""Rejection suite for `np_run --validate`.

Every case starts from a small valid spec (or a committed scenario),
applies one mutation, runs `np_run <spec> --validate`, and asserts the
exit code plus a regex on stderr. Unknown-key cases also compare the
printed "allowed:" list, as a set, against the keys that section
accepts, so the print order is free to change but the accepted key set
is pinned. Flag cases pass extra command-line flags; --validate returns
before any thread starts. Both-path cases also run the spec (the base
spec runs in well under a second) and require the run to exit and
print exactly as --validate does. No message may name the checkout
directory.

Run directly (python3 tests/tools/np_run_spec_test.py path/to/np_run)
or via ctest (tools_np_run_spec).
"""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORLDS = {
    "clustered": {"type": "clustered", "seed": 7, "num_clusters": 4,
                  "nets_per_cluster": 5, "peers_per_net": 2, "delta": 0.9},
    "euclidean": {"type": "euclidean", "seed": 5, "num_nodes": 200,
                  "dimensions": 3, "side_ms": 100.0},
    "embedded": {"type": "embedded", "seed": 17, "num_nodes": 200,
                 "dimensions": 3, "side_ms": 100.0, "distortion": 0.1},
    "sparse": {"type": "sparse", "seed": 23, "num_nodes": 200,
               "extra_edges_per_node": 3, "min_edge_ms": 1.0,
               "max_edge_ms": 50.0, "row_cache_capacity": 64},
    "topology": {"type": "topology", "seed": 31, "num_cities": 6,
                 "num_ases": 4, "azureus_hosts": 100},
}

BASE = {
    "name": "spec_test",
    "description": "mutated per case",
    "world": WORLDS["clustered"],
    "churn": {"mode": "poisson", "duration_s": 60.0, "events_per_s": 1.0,
              "join_fraction": 0.5, "seed": 3},
    "scenario": {"initial_overlay": 20, "epochs": 2,
                 "queries_per_epoch": 10, "num_threads": 1, "seed": 11},
    "algorithms": ["oracle"],
}

TRACE_CHURN = {"mode": "trace", "trace": [{"t": 1.0, "op": "join"}]}

ALLOWED = {
    "the scenario spec": {"name", "description", "world", "churn",
                          "scenario", "algorithms"},
    "world (clustered)": {"type", "seed", "num_clusters", "nets_per_cluster",
                          "peers_per_net", "delta"},
    "world (euclidean)": {"type", "seed", "num_nodes", "dimensions",
                          "side_ms"},
    "world (embedded)": {"type", "seed", "num_nodes", "dimensions",
                         "side_ms", "distortion"},
    "world (sparse)": {"type", "seed", "num_nodes", "extra_edges_per_node",
                       "min_edge_ms", "max_edge_ms", "row_cache_capacity"},
    "world (topology)": {"type", "seed", "num_cities", "num_ases",
                         "azureus_hosts"},
    "churn (poisson)": {"mode", "duration_s", "events_per_s",
                        "join_fraction", "mean_session_s", "session_model",
                        "lognormal_sigma", "pareto_alpha", "crash_frac",
                        "diurnal", "blackouts", "seed"},
    "churn (trace)": {"mode", "trace", "blackouts"},
    "churn.trace entry": {"t", "op"},
    "churn.diurnal": {"day_s", "amplitude", "peak_frac"},
    "churn.blackouts entry": {"t", "cluster"},
    "scenario": {"initial_overlay", "epochs", "queries_per_epoch",
                 "num_threads", "fault", "query_zipf_s", "mode",
                 "reader_threads", "check_replay", "seed"},
    "scenario.fault": {"loss_rate", "retry", "track_load", "partitions",
                       "grey_nodes", "asymmetric_loss", "suspicion"},
    "fault.partitions entry": {"start_epoch", "end_epoch", "groups"},
    "fault.grey_nodes": {"frac", "loss_rate"},
    "fault.suspicion": {"strikes", "probation_epochs", "probation_backoff"},
}

SIMPLE_ALGORITHMS = {
    "oracle", "random", "meridian", "karger-ruhl", "tiers", "tiers-rebuild",
    "beaconing", "tapestry", "coord-vivaldi", "coord-pic", "coord-landmark"}

ALLOWED_RE = re.compile(
    r'unknown key "bogus" in (.*) \(allowed: ([^)]*)\)')


def scenario(name):
    """The mutation swaps the base spec for scenarios/<name>.json."""
    def mutate(spec):
        path = os.path.join(ROOT, "scenarios", name + ".json")
        with open(path, encoding="utf-8") as f:
            spec.clear()
            spec.update(json.load(f))
    return mutate


def world(spec, kind):
    spec["world"] = copy.deepcopy(WORLDS[kind])


def trace(spec):
    spec["churn"] = copy.deepcopy(TRACE_CHURN)


def partition(groups):
    return {"start_epoch": 0, "end_epoch": 1, "groups": groups}


def unknown_key(section, mutate):
    """The mutation puts key "bogus" into `section`."""
    return (mutate, 1, None, section, ())


def rejects(mutate, pattern):
    return (mutate, 1, pattern, None, ())


def accepts(mutate):
    return (mutate, 0, r"^$", None, ())


def flags(args, want_code):
    """The base spec with extra flags: exit 0 quietly, or 2 with usage."""
    pattern = r"^$" if want_code == 0 else r"^usage: np_run "
    return (lambda spec: None, want_code, pattern, None, args)


def unknown_key_cases():
    def into(path):
        def mutate(spec):
            target = spec
            for step in path:
                target = target[step]
            target["bogus"] = 1
        return mutate

    cases = {}
    cases["unknown key: top level"] = unknown_key(
        "the scenario spec", into([]))
    for kind in WORLDS:
        def mutate(spec, kind=kind):
            world(spec, kind)
            spec["world"]["bogus"] = 1
        cases["unknown key: world " + kind] = unknown_key(
            "world (%s)" % kind, mutate)
    cases["unknown key: poisson churn"] = unknown_key(
        "churn (poisson)", into(["churn"]))

    def trace_key(spec):
        trace(spec)
        spec["churn"]["bogus"] = 1
    cases["unknown key: trace churn"] = unknown_key("churn (trace)",
                                                    trace_key)

    def trace_entry(spec):
        trace(spec)
        spec["churn"]["trace"][0]["bogus"] = 1
    cases["unknown key: trace entry"] = unknown_key("churn.trace entry",
                                                    trace_entry)

    def diurnal(spec):
        spec["churn"]["diurnal"] = {"day_s": 30.0, "bogus": 1}
    cases["unknown key: diurnal"] = unknown_key("churn.diurnal", diurnal)

    def blackout(spec):
        spec["churn"]["blackouts"] = [{"t": 5.0, "cluster": 1, "bogus": 1}]
    cases["unknown key: blackouts entry"] = unknown_key(
        "churn.blackouts entry", blackout)
    cases["unknown key: scenario"] = unknown_key(
        "scenario", into(["scenario"]))

    def fault(spec):
        spec["scenario"]["fault"] = {"loss_rate": 0.1, "bogus": 1}
    cases["unknown key: fault"] = unknown_key("scenario.fault", fault)

    def partition_entry(spec):
        entry = partition([[0], [1]])
        entry["bogus"] = 1
        spec["scenario"]["fault"] = {"partitions": [entry]}
    cases["unknown key: partitions entry"] = unknown_key(
        "fault.partitions entry", partition_entry)

    def grey(spec):
        spec["scenario"]["fault"] = {
            "grey_nodes": {"frac": 0.1, "loss_rate": 0.5, "bogus": 1}}
    cases["unknown key: grey_nodes"] = unknown_key("fault.grey_nodes", grey)

    def suspicion(spec):
        spec["scenario"]["fault"] = {"suspicion": {"strikes": 2, "bogus": 1}}
    cases["unknown key: suspicion"] = unknown_key("fault.suspicion",
                                                  suspicion)
    return cases


def set_key(path, value):
    def mutate(spec):
        target = spec
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return mutate


def then(*mutations):
    def mutate(spec):
        for m in mutations:
            m(spec)
    return mutate


def other_cases():
    cases = {}
    for kind in WORLDS:
        cases["valid base: " + kind] = accepts(
            lambda spec, kind=kind: world(spec, kind))
    cases["valid base: trace"] = accepts(trace)
    cases["valid base: serving"] = accepts(then(
        set_key(["scenario", "mode"], "serving"),
        set_key(["scenario", "reader_threads"], 2),
        set_key(["scenario", "check_replay"], False)))
    cases["valid base: every topology-free algorithm"] = accepts(
        set_key(["algorithms"], sorted(SIMPLE_ALGORITHMS)))

    cases["unknown world type"] = rejects(
        set_key(["world", "type"], "bogus"), r"unknown world type: bogus")
    cases["unknown churn mode"] = rejects(
        set_key(["churn", "mode"], "bogus"), r"unknown churn mode: bogus")
    cases["unknown session model"] = rejects(
        set_key(["churn", "session_model"], "bogus"),
        r"unknown session_model: bogus")
    cases["unknown scenario.mode"] = rejects(
        set_key(["scenario", "mode"], "bogus"),
        r"unknown scenario\.mode: bogus")
    cases["reader_threads without serving"] = rejects(
        set_key(["scenario", "reader_threads"], 2),
        r'scenario\.reader_threads / scenario\.check_replay require '
        r'"mode": "serving"')
    cases["check_replay without serving"] = rejects(
        set_key(["scenario", "check_replay"], True),
        r'scenario\.reader_threads / scenario\.check_replay require '
        r'"mode": "serving"')
    cases["blackouts on a non-clustered world"] = rejects(
        then(lambda spec: world(spec, "embedded"),
             set_key(["churn", "blackouts"], [{"t": 5.0, "cluster": 0}])),
        r"churn\.blackouts needs a clustered world")
    cases["partitions on a non-clustered world"] = rejects(
        then(lambda spec: world(spec, "embedded"),
             set_key(["scenario", "fault"],
                     {"partitions": [partition([[0], [1]])]})),
        r"fault\.partitions splits cluster groups and needs a clustered "
        r"world")
    cases["partition with one group"] = rejects(
        set_key(["scenario", "fault"], {"partitions": [partition([[0]])]}),
        r"fault\.partitions entry needs at least two groups")
    cases["unknown hybrid mechanism"] = rejects(
        then(lambda spec: world(spec, "topology"),
             set_key(["algorithms"], ["hybrid-bogus"])),
        r"unknown hybrid mechanism: bogus")
    cases["hybrid on a non-topology world"] = rejects(
        set_key(["algorithms"], ["hybrid-ucl"]),
        r"algorithm hybrid-ucl needs a topology world")
    cases["trace churn with a seed"] = rejects(
        then(trace, set_key(["churn", "seed"], 3)),
        r'unknown key "seed" in churn \(trace\)')
    cases["epochs beyond int"] = rejects(
        set_key(["scenario", "epochs"], 4294967297),
        r'"epochs" in scenario is out of range: 4294967297')
    cases["num_nodes beyond NodeId"] = rejects(
        then(lambda spec: world(spec, "embedded"),
             set_key(["world", "num_nodes"], 3000000000)),
        r'"num_nodes" in world \(embedded\) is out of range: 3000000000')
    cases["sparse max_edge_ms too large"] = rejects(
        then(lambda spec: world(spec, "sparse"),
             set_key(["world", "num_nodes"], 1000),
             set_key(["world", "max_edge_ms"], 1e10)),
        r"max_edge_ms too large")
    # Each world generator's own range check runs at --validate too, so
    # a spec that validates does not fail later in world generation.
    cases["clustered delta above 1"] = rejects(
        set_key(["world", "delta"], 2.0), r"delta must be in \[0, 1\]")
    cases["clustered without clusters"] = rejects(
        set_key(["world", "num_clusters"], 0), r"need at least one cluster")
    cases["embedded negative distortion"] = rejects(
        then(lambda spec: world(spec, "embedded"),
             set_key(["world", "distortion"], -1)),
        r"distortion must be in \[0, 1\)")
    cases["embedded without dimensions"] = rejects(
        then(lambda spec: world(spec, "embedded"),
             set_key(["world", "dimensions"], 0)),
        r"need at least one dimension")
    cases["topology without cities"] = rejects(
        then(lambda spec: world(spec, "topology"),
             set_key(["world", "num_cities"], 0)),
        r"need at least one city")
    cases.update(engine_cases())
    return cases


def engine_cases():
    """The scenario section's values the engines reject, from committed
    specs: --validate runs the engines' own checks, with their
    messages."""
    cases = {}
    fault = ["scenario", "fault"]
    suspicion = fault + ["suspicion"]
    grey = fault + ["grey_nodes"]
    grey_range = (r"grey_node_frac must be in \[0, 1\], "
                  r"grey_loss_rate in \[0, 1\)")
    heal = [
        ("probation_backoff below 1", suspicion + ["probation_backoff"], 0.5,
         r"SuspicionConfig probation_backoff must be >= 1"),
        ("probation_epochs 0", suspicion + ["probation_epochs"], 0,
         r"SuspicionConfig probation_epochs must be >= 1"),
        ("negative strikes", suspicion + ["strikes"], -1,
         r"SuspicionConfig strikes must be >= 0"),
        ("retry 0", fault + ["retry"], 0,
         r"ProbePolicy needs at least one attempt"),
        ("loss_rate 1", fault + ["loss_rate"], 1.0,
         r"FaultySpace loss_rate must be in \[0, 1\)"),
        ("partition ending before it starts",
         fault + ["partitions", 0, "end_epoch"], 2,
         r"partition window needs 0 <= start_epoch < end_epoch"),
        ("partition group outside the world",
         fault + ["partitions", 0, "groups", 1], [2, 99],
         r"partition group names a cluster outside the world"),
    ]
    grey_failure = [
        ("grey frac above 1", grey + ["frac"], 1.5, grey_range),
        ("grey loss_rate above 1", grey + ["loss_rate"], 1.5, grey_range),
        ("asymmetric_loss above 1", fault + ["asymmetric_loss"], 1.5,
         r"asymmetric_frac must be in \[0, 1\)"),
        ("negative loss_rate", fault + ["loss_rate"], -0.1,
         r"FaultySpace loss_rate must be in \[0, 1\)"),
        ("negative query_zipf_s", ["scenario", "query_zipf_s"], -1,
         r"zipf exponent must be >= 0"),
        ("epochs 0", ["scenario", "epochs"], 0, r"need at least one epoch"),
        ("queries_per_epoch 0", ["scenario", "queries_per_epoch"], 0,
         r"need queries per epoch"),
        ("initial_overlay 0", ["scenario", "initial_overlay"], 0,
         r"overlay must be non-empty"),
        ("initial_overlay beyond the world",
         ["scenario", "initial_overlay"], 10000000,
         r"need at least one node left over as a target"),
    ]
    for name, rows in (("partition_heal", heal),
                       ("grey_failure", grey_failure)):
        cases["valid scenario: " + name] = accepts(scenario(name))
        for label, path, value, pattern in rows:
            cases["%s: %s" % (name, label)] = rejects(
                then(scenario(name), set_key(path, value)), pattern)
    return cases


def flag_cases():
    cases = {}
    for args in (["--threads", "0"], ["--threads", "8", "--readers", "1"]):
        cases["flags accepted: " + " ".join(args)] = flags(args, 0)
    for args in (["--threads", "2x"], ["--threads", "-3"],
                 ["--threads", "abc"], ["--threads", ""],
                 ["--threads", "4294967297"], ["--readers", "0"],
                 ["--readers", "2x"], ["--readers", "-1"]):
        cases["flags rejected: " + " ".join(args)] = flags(args, 2)
    return cases


def both_paths_cases():
    """(mutate, args, exit code, stderr regex): --threads replaces
    scenario.num_threads before either path checks it; a blackout of a
    cluster the world lacks and an out-of-range grey fraction fail even
    though neither would crash or grey any peer."""
    threads = set_key(["scenario", "num_threads"], -3)
    blackout = set_key(["churn", "blackouts"], [{"t": 5, "cluster": 99}])
    grey = set_key(["scenario", "fault"],
                   {"grey_nodes": {"frac": -0.5, "loss_rate": 0}})
    return {
        "num_threads -3": (threads, (), 1,
                           r"num_threads must be >= 0 "
                           r"\(0 = hardware concurrency\)"),
        "num_threads -3 --threads 2": (threads, ("--threads", "2"), 0,
                                       r"^$"),
        "blackout cluster 99": (blackout, (), 1,
                                r"blackout names a cluster outside the "
                                r"world\n$"),
        "grey_nodes.frac -0.5, loss_rate 0": (
            grey, (), 1, r"grey_node_frac must be in \[0, 1\]"),
    }


def validate(np_run, workdir, mutate, args=(), text=None, run=False):
    """Runs np_run --validate plus `args` on the base spec after
    `mutate`, or on `text` verbatim when given; with `run`, runs the
    spec instead, writing the report into `workdir`."""
    if text is None:
        spec = copy.deepcopy(BASE)
        mutate(spec)
        text = json.dumps(spec)
    path = os.path.join(workdir, "spec.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    mode = (["--out", os.path.join(workdir, "report.json")] if run
            else ["--validate"])
    return subprocess.run([np_run, path, *mode, *args],
                          capture_output=True, text=True, encoding="utf-8")


def unknown_key_report(stderr):
    """(section, allowed-key set) from an unknown-key error, or None."""
    m = ALLOWED_RE.search(stderr)
    return None if m is None else (m.group(1), set(m.group(2).split(", ")))


def run_case(np_run, workdir, name, case):
    mutate, want_code, pattern, section, args = case
    proc = validate(np_run, workdir, mutate, args)
    errors = []
    if proc.returncode != want_code:
        errors.append("exit %d, want %d" % (proc.returncode, want_code))
    if section is not None:
        report = unknown_key_report(proc.stderr)
        if report is None:
            errors.append("no unknown-key message")
        elif report[0] != section:
            errors.append("section %r, want %r" % (report[0], section))
        elif report[1] != ALLOWED[section]:
            errors.append("allowed: extra %s, missing %s" % (
                sorted(report[1] - ALLOWED[section]),
                sorted(ALLOWED[section] - report[1])))
    elif not re.search(pattern, proc.stderr):
        errors.append("stderr does not match /%s/" % pattern)
    if ROOT in proc.stderr:
        errors.append("stderr names the checkout directory")
    if errors:
        print("FAIL %s: %s\n  stderr: %s" % (
            name, "; ".join(errors), proc.stderr.strip()))
        return False
    print("ok   %s" % name)
    return True


def both_paths_case(np_run, workdir, name, case):
    """--validate and the run exit with `want_code` and print the same
    stderr, matching `pattern`."""
    mutate, args, want_code, pattern = case
    procs = {"--validate": validate(np_run, workdir, mutate, args),
             "run": validate(np_run, workdir, mutate, args, run=True)}
    errors = []
    for label, proc in procs.items():
        if proc.returncode != want_code:
            errors.append("%s exit %d, want %d" % (label, proc.returncode,
                                                   want_code))
        if not re.search(pattern, proc.stderr):
            errors.append("%s stderr does not match /%s/" % (label, pattern))
    if procs["--validate"].stderr != procs["run"].stderr:
        errors.append("--validate and the run print different errors")
    if errors:
        print("FAIL both paths: %s: %s\n  stderr: %s" % (
            name, "; ".join(errors),
            " | ".join(p.stderr.strip() for p in procs.values())))
        return False
    print("ok   both paths: %s" % name)
    return True


def unknown_algorithm_case(np_run, workdir):
    """The hint lists every accepted name; pin it as a set."""
    proc = validate(np_run, workdir, set_key(["algorithms"], ["bogus"]))
    m = re.search(r"unknown algorithm: bogus \(expected (.*) \| "
                  r"hybrid-\{([^}]*)\}\)", proc.stderr)
    ok = (proc.returncode == 1 and m is not None and
          set(m.group(1).split(" | ")) == SIMPLE_ALGORITHMS and
          set(m.group(2).split(",")) ==
          {"ucl", "prefix", "multicast", "registry"})
    print("%s unknown algorithm%s" % (
        "ok  " if ok else "FAIL",
        "" if ok else "\n  stderr: " + proc.stderr.strip()))
    return ok


def deep_nesting_case(np_run, workdir):
    """100,000 nested arrays: a positioned parse error, not a crash."""
    proc = validate(np_run, workdir, None, text="[" * 100000)
    ok = proc.returncode == 1 and re.search(
        r"nested deeper than 64 levels \(byte offset 64\)", proc.stderr)
    print("%s deep nesting%s" % (
        "ok  " if ok else "FAIL",
        "" if ok else "\n  exit %d, stderr: %s" % (proc.returncode,
                                                   proc.stderr.strip())))
    return bool(ok)


def main():
    if len(sys.argv) != 2:
        print("usage: np_run_spec_test.py <path to np_run>", file=sys.stderr)
        return 2
    np_run = sys.argv[1]
    cases = unknown_key_cases()
    cases.update(other_cases())
    cases.update(flag_cases())
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, case in cases.items():
            failures += not run_case(np_run, workdir, name, case)
        both_paths = both_paths_cases()
        for name, case in both_paths.items():
            failures += not both_paths_case(np_run, workdir, name, case)
        failures += not unknown_algorithm_case(np_run, workdir)
        failures += not deep_nesting_case(np_run, workdir)
    print("np_run_spec_test: %d case(s), %d failure(s)" % (
        len(cases) + len(both_paths) + 2, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
