#!/usr/bin/env python3
"""Unit tests for scripts/check_docs_links.py — the CI docs job's
internal-link check. Each test builds a throwaway git repository in a
temp dir, tracks a few markdown files in it, and runs the script there
exactly as CI does (a subprocess with no arguments, so it scans every
tracked *.md file).

Run directly (python3 tests/scripts/check_docs_links_test.py) or via
ctest (scripts_check_docs_links).
"""

import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_docs_links.py")


class CheckDocsLinksTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.repo = self.tmp.name
        self.git("init", "-q")

    def git(self, *args):
        subprocess.run(["git", *args], cwd=self.repo, check=True,
                       capture_output=True)

    def track(self, files):
        for name, text in files.items():
            path = os.path.join(self.repo, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        self.git("add", *files)

    def run_check(self):
        return subprocess.run([sys.executable, SCRIPT], cwd=self.repo,
                              capture_output=True, text=True)

    def test_resolving_links_pass(self):
        self.track({
            "README.md": "See [docs](docs/GUIDE.md#setup) and "
                         "[site](https://example.org).\n",
            "docs/GUIDE.md": "Back to the [readme](../README.md).\n",
        })
        proc = self.run_check()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok: 2 markdown files", proc.stdout)

    def test_dangling_relative_link_fails_and_is_listed(self):
        self.track({"README.md": "See [gone](docs/MISSING.md).\n"})
        proc = self.run_check()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("README.md: (docs/MISSING.md)", proc.stdout)

    def test_link_inside_fenced_code_is_ignored(self):
        self.track({
            "README.md": "Example:\n\n```\n[not a link](nowhere.md)\n```\n",
        })
        proc = self.run_check()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_tracked_but_deleted_file_is_skipped(self):
        self.track({
            "README.md": "See [notes](NOTES.md).\n",
            "NOTES.md": "Notes.\n",
            "OTHER.md": "Nothing to see.\n",
        })
        os.remove(os.path.join(self.repo, "OTHER.md"))
        proc = self.run_check()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertIn("note: OTHER.md", proc.stdout)
        # A link to the deleted file is still dangling.
        os.remove(os.path.join(self.repo, "NOTES.md"))
        proc = self.run_check()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("README.md: (NOTES.md)", proc.stdout)


if __name__ == "__main__":
    unittest.main()
