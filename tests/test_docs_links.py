"""Intra-repo markdown links and backticked paths must point at real files.

Scans every tracked ``*.md`` page (repo root and ``docs/``) for inline
``[text](target)`` links, resolves relative targets against the page's own
directory, and fails on any that point nowhere.  External URLs and pure
in-page anchors are out of scope.  The pages under ``docs/`` and the
README are also scanned for backticked repo paths (``dir/name.py``,
``.md`` or ``.json``), which must exist relative to the repo root,
``src/`` or ``src/repro/``.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
#: a backticked path with at least one directory and no glob characters
_PATH_RE = re.compile(r"`([\w.-]+/[\w./-]+\.(?:py|md|json))`")
_PATH_ROOTS = (REPO, REPO / "src", REPO / "src" / "repro")


def _markdown_pages():
    pages = sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
    assert pages, "no markdown pages found -- wrong repo root?"
    return pages


def _intra_repo_links(page: Path):
    inside_fence = False
    for line in page.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
            continue
        if inside_fence:
            continue
        for target in _LINK_RE.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            yield target


def test_intra_repo_markdown_links_resolve():
    broken = []
    for page in _markdown_pages():
        for target in _intra_repo_links(page):
            path = target.split("#", 1)[0]
            resolved = (REPO / path if path.startswith("/")
                        else page.parent / path)
            if not resolved.exists():
                broken.append(f"{page.relative_to(REPO)} -> {target}")
    assert not broken, "broken intra-repo markdown links:\n" + "\n".join(broken)


def test_backticked_repo_paths_exist():
    pages = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]
    missing = []
    for page in pages:
        for path in _PATH_RE.findall(page.read_text(encoding="utf-8")):
            if not any((root / path).exists() for root in _PATH_ROOTS):
                missing.append(f"{page.relative_to(REPO)} -> {path}")
    assert not missing, "stale paths in docs:\n" + "\n".join(missing)
