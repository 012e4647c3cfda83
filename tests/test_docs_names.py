"""Every dotted ``repro.`` name the prose docs cite still resolves.

For each name, the longest importable module prefix is imported and the
rest is followed as an attribute chain, so a renamed or deleted module,
class, function or constant fails here instead of going stale in the
docs.  ``EXPERIMENTS.md`` is left out: it cites a deleted module on
purpose, as history.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/architecture.md", "README.md", "DESIGN.md", "docs/mechanism.md")
NAME = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+")


def _cited() -> list:
    return [pytest.param(doc, name, id=f"{doc}:{name}") for doc in DOCS
            for name in sorted(set(NAME.findall((ROOT / doc).read_text())))]


def _resolve(name: str) -> object:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc,name", _cited())
def test_cited_name_resolves(doc, name):
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} cites {name}, which does not resolve: {exc}")


def test_every_doc_cites_names():
    """Guards the pattern: a doc that cites nothing here would make the
    check above vacuous for it."""
    cited = {param.values[0] for param in _cited()}
    assert cited == set(DOCS)
