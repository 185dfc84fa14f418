"""The CLI's outputs and criterion 3's tau values against the golden
corpus in ``tests/golden`` (see ``tests/golden/regen.py``)."""

import json

from golden import regen


def test_outputs_equal_the_golden_corpus():
    for name, doc in regen.corpus().items():
        kept = json.loads(regen.FILES[name].read_text())
        recorded, now = kept.pop("platform"), doc.pop("platform")
        rows = doc["runs" if name == "cli" else "results"]
        changed = [got.get("argv", got) for got, want in zip(
            rows, kept["runs" if name == "cli" else "results"]) if got != want]
        assert regen.text(doc) == regen.text(kept), (
            f"{regen.FILES[name].name} differs at {changed}; recorded with "
            f"{recorded}, run with {now}.  A deliberate change is regenerated "
            f"by python tests/golden/regen.py and named in CHANGES.md")
