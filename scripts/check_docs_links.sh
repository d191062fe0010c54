#!/bin/sh
# Checks intra-repository markdown links: every relative [text](target)
# in the repo's committed *.md files must point at an existing file (or
# directory), and every "#fragment" on a markdown target — including pure
# anchors (#...) into the same file — must name one of that file's
# headings, slugged the way GitHub renders them.  External links
# (scheme://) and mailto: are skipped.  Exits non-zero listing every broken
# reference.
#
# Usage: scripts/check_docs_links.sh   (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

python3 - <<'PYEOF'
import os
import re
import sys

# Committed markdown only: walk the tree, skipping build trees and vendored
# third-party code the same way a reader of the repository would.
SKIP_DIRS = {".git", "third_party", "node_modules"}
SKIP_PREFIXES = ("build",)

md_files = []
for root, dirs, files in os.walk("."):
    dirs[:] = [
        d for d in dirs
        if d not in SKIP_DIRS and not d.startswith(SKIP_PREFIXES)
    ]
    md_files.extend(
        os.path.join(root, f) for f in files if f.endswith(".md"))

# Inline links [text](target); images ![alt](target) match the same shape.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^(#{1,6})[ \t]+(.*?)[ \t]*#*[ \t]*$")


def read_markdown(path):
    with open(path, encoding="utf-8") as fh:
        # Fenced code blocks hold example syntax, not navigation.
        return re.sub(r"```.*?```", "", fh.read(), flags=re.S)


def slug(heading):
    """GitHub's heading anchor: link text kept, lowercased, punctuation
    other than '-' and '_' dropped, spaces turned into hyphens."""
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    heading = re.sub(r"[^\w\- ]", "", heading.lower())
    return heading.replace(" ", "-")


anchor_cache = {}


def anchors(path):
    """Every anchor a markdown file's headings define; repeated headings
    get GitHub's -1, -2, ... suffixes."""
    if path not in anchor_cache:
        seen = {}
        found = set()
        for line in read_markdown(path).splitlines():
            m = HEADING.match(line)
            if not m:
                continue
            base = slug(m.group(2))
            count = seen.get(base, 0)
            seen[base] = count + 1
            found.add(base if count == 0 else f"{base}-{count}")
        anchor_cache[path] = found
    return anchor_cache[path]


broken = []
anchor_links = 0
for path in sorted(md_files):
    text = read_markdown(path)
    for match in LINK.finditer(text):
        target = match.group(1)
        if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):  # scheme://
            continue
        file_part, _, fragment = target.partition("#")
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), file_part)) if file_part \
            else os.path.normpath(path)
        if not os.path.exists(resolved):
            broken.append(f"{path}: [{target}] -> {resolved}")
            continue
        if fragment and resolved.endswith(".md"):
            anchor_links += 1
            if fragment.lower() not in anchors(resolved):
                broken.append(
                    f"{path}: [{target}] -> no heading #{fragment} in "
                    f"{resolved}")

if broken:
    print("check_docs_links: broken intra-repo references:")
    for line in broken:
        print(f"  {line}")
    sys.exit(1)
print(f"check_docs_links: OK ({len(md_files)} markdown files, "
      f"{anchor_links} anchor links)")
PYEOF
