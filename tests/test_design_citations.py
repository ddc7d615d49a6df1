"""Every ``DESIGN.md §x`` citation in the code names a heading that exists.

A citation is ``DESIGN §4h`` or ``DESIGN.md §7``, optionally followed by
``, *Name*``: the section must be a ``## 4h.`` heading of DESIGN.md, and the
name a ``### Name`` heading or a ``**Name.**`` paragraph lead inside it.  A
renamed or renumbered heading fails here with the file and line of every
citation it strands.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
CITATION = re.compile(r"DESIGN(?:\.md)?\s+§\s*(\d+[a-z]?)(?:,?\s+\*([^*\n]+)\*)?")
SECTION = re.compile(r"^## (\d+[a-z]?)\. ", re.M)


def sections(text: str) -> dict[str, str]:
    """Each numbered ``##`` section's number and body."""
    heads = list(SECTION.finditer(text))
    ends = [h.start() for h in heads[1:]] + [len(text)]
    return {h.group(1): text[h.start() : end] for h, end in zip(heads, ends)}


def names(body: str) -> set[str]:
    """What a ``*Name*`` may cite inside one section."""
    found = {m.group(1).strip() for m in re.finditer(r"^### (.+)$", body, re.M)}
    found |= {m.group(1) for m in re.finditer(r"\*\*([^*\n]+?)\.\*\*", body)}
    return found


def citations() -> list[tuple[str, int, str, str | None]]:
    """``(file, line, section, name)`` of every citation in the code."""
    found = []
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".md") or path == Path(__file__):
                continue
            text = path.read_text()
            for m in CITATION.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                found.append((str(path.relative_to(ROOT)), line, m.group(1), m.group(2)))
    return found


def stranded(design: str) -> list[str]:
    table = sections(design)
    bad = []
    for path, line, number, name in citations():
        if number not in table:
            bad.append(f"{path}:{line}: no section §{number}")
        elif name is not None and name.strip() not in names(table[number]):
            bad.append(f"{path}:{line}: §{number} has no *{name}*")
    return bad


def test_every_citation_names_an_existing_heading():
    found = citations()
    assert len(found) > 40  # the scan sees the code's citations
    assert stranded((ROOT / "DESIGN.md").read_text()) == []


def test_a_renamed_heading_strands_its_citations():
    design = (ROOT / "DESIGN.md").read_text()
    renamed = design.replace("\n## 4h. ", "\n## 4z. ").replace(
        "### The even-slowdown solve", "### The solve"
    )
    bad = stranded(renamed)
    assert any("no section §4h" in b for b in bad)
    assert any("*The even-slowdown solve*" in b for b in bad)
