#!/usr/bin/env python3
"""docs/SCENARIOS.md key tables == the keys np_run reads.

For every section of the scenario spec that docs/SCENARIOS.md documents
with a key table, inject an unknown key into a valid spec, run
`np_run --validate`, and require the "allowed:" set np_run prints to
equal the table's key set. np_run's allowed list is the record of the
keys its parser read, so this is the check that keeps the documentation
and the parser from drifting apart. Every key table in the document must
map to a section here, so a new table cannot go unchecked.

Run directly (python3 tests/tools/spec_docs_test.py path/to/np_run) or
via ctest (tools_spec_docs).
"""

import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import np_run_spec_test  # noqa: E402  (shares its base specs and cases)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DOC = os.path.join(ROOT, "docs", "SCENARIOS.md")

# Heading prefix -> (np_run section, keys the document states in prose
# rather than in the table: the world tables are "plus `type`", and the
# churn tables sit under "`mode` is poisson or trace").
SECTIONS = [
    ("## Top level", "the scenario spec", set()),
    ('### `"clustered"`', "world (clustered)", {"type"}),
    ('### `"euclidean"`', "world (euclidean)", {"type"}),
    ('### `"embedded"`', "world (embedded)", {"type"}),
    ('### `"sparse"`', "world (sparse)", {"type"}),
    ('### `"topology"`', "world (topology)", {"type"}),
    ('### `"poisson"`', "churn (poisson)", {"mode"}),
    ("### `diurnal`", "churn.diurnal", set()),
    ('### `"trace"`', "churn (trace)", {"mode"}),
    ("## `scenario`", "scenario", set()),
    ("### `fault`", "scenario.fault", set()),
]

ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|")


def doc_tables():
    """Heading line -> set of keys in the first key table under it."""
    tables = {}
    heading = None
    in_table = False
    with open(DOC, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                heading, in_table = line, False
            elif re.match(r"^\|\s*key\s*\|", line):
                in_table = heading not in tables
                if in_table:
                    tables[heading] = set()
            elif in_table and line.startswith("|"):
                m = ROW_RE.match(line)
                if m:
                    tables[heading].add(m.group(1))
            else:
                in_table = False
    return tables


def main():
    if len(sys.argv) != 2:
        print("usage: spec_docs_test.py <path to np_run>", file=sys.stderr)
        return 2
    np_run = sys.argv[1]
    cases = {case[3]: case
             for case in np_run_spec_test.unknown_key_cases().values()}
    tables = doc_tables()
    failures = 0
    for heading in tables:
        if not any(heading.startswith(prefix) for prefix, _, _ in SECTIONS):
            print("FAIL key table under %r maps to no spec section" % heading)
            failures += 1
    with tempfile.TemporaryDirectory() as workdir:
        for prefix, section, prose_keys in SECTIONS:
            matches = [h for h in tables if h.startswith(prefix)]
            if len(matches) != 1:
                print("FAIL %s: %d key tables under %r" % (
                    section, len(matches), prefix))
                failures += 1
                continue
            documented = tables[matches[0]] | prose_keys
            proc = np_run_spec_test.validate(np_run, workdir,
                                             cases[section][0])
            report = np_run_spec_test.unknown_key_report(proc.stderr)
            read = set() if report is None else report[1]
            if report is None or report[0] != section or read != documented:
                print("FAIL %s: undocumented %s, documented but not read %s"
                      "\n  stderr: %s" % (
                          section, sorted(read - documented),
                          sorted(documented - read), proc.stderr.strip()))
                failures += 1
            else:
                print("ok   %s" % section)
    print("spec_docs_test: %d section(s), %d failure(s)" % (
        len(SECTIONS), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
