#!/usr/bin/env python3
"""Check that internal markdown links resolve to real files.

Scans every tracked *.md file (or the files passed on the command
line) for [text](target) links, skips external schemes and pure
anchors, resolves each target relative to the linking file, and fails
(exit 1) listing every dangling link. Used by the CI docs job so
README/docs restructures cannot leave broken cross-references behind.
A tracked file that is missing from the working tree is skipped with a
note; a link *to* a missing file is still reported as dangling.

Usage:
  scripts/check_docs_links.py [FILE.md ...]
"""

import re
import subprocess
import sys
from pathlib import Path

# Inline links: [text](target). Images share the syntax; reference
# definitions and autolinks are out of scope for this repo's docs.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def tracked_markdown(root):
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=root, capture_output=True, text=True, check=True)
    return sorted({root / line for line in out.stdout.splitlines() if line})


def check_file(path, root):
    dangling = []
    text = path.read_text(encoding="utf-8")
    # Strip fenced code blocks: their brackets are code, not links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            dangling.append((target, path.relative_to(root)))
    return dangling


def main():
    root = Path(
        subprocess.run(["git", "rev-parse", "--show-toplevel"],
                       capture_output=True, text=True,
                       check=True).stdout.strip())
    files = [Path(arg).resolve() for arg in sys.argv[1:]]
    if not files:
        for path in tracked_markdown(root):
            if path.exists():
                files.append(path)
            else:
                print(f"note: {path.relative_to(root)} is tracked but "
                      "missing from the working tree; skipped")
    dangling = []
    for path in files:
        dangling.extend(check_file(path, root))
    if dangling:
        print("dangling internal links:")
        for target, source in dangling:
            print(f"  {source}: ({target})")
        return 1
    print(f"ok: {len(files)} markdown files, all internal links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
