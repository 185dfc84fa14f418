"""The CLI's outputs and criterion 3's tau values against the golden
corpus in ``tests/golden`` (see ``tests/golden/regen.py``)."""

import copy
import json

from golden import regen


def test_outputs_equal_the_golden_corpus():
    for name, doc in regen.corpus().items():
        kept = json.loads(regen.FILES[name].read_text())
        recorded, now = kept.pop("platform"), doc.pop("platform")
        assert regen.text(doc) == regen.text(kept), (
            f"{regen.FILES[name].name} differs at {regen.differences(name, doc, kept)}; "
            f"recorded with {recorded}, run with {now}.  A deliberate change is "
            f"regenerated by python tests/golden/regen.py and named in CHANGES.md")


def test_check_mode_lists_each_difference_and_writes_nothing(tmp_path, monkeypatch,
                                                             capsys):
    docs = {name: json.loads(path.read_text()) for name, path in regen.FILES.items()}
    monkeypatch.setattr(regen, "corpus", lambda: copy.deepcopy(docs))
    files = {name: tmp_path / path.name for name, path in regen.FILES.items()}
    monkeypatch.setattr(regen, "FILES", files)
    for name, doc in docs.items():
        files[name].write_text(regen.text(doc))
    assert regen.main(["--check"]) == 0
    assert capsys.readouterr().out == "0 differences\n"

    edited = copy.deepcopy(docs)
    runs, results = edited["cli"]["runs"], edited["tau"]["results"]
    runs[0]["exit"] = 7
    report = next(name for name in runs[-1]["reports"])
    runs[-1]["reports"][report]["worst_margin"] = 1.0
    del runs[1]
    results[2]["tau"] = "0x1.0p+0"
    kept = {name: regen.text(doc) for name, doc in edited.items()}
    for name, doc in kept.items():
        files[name].write_text(doc)
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"cli.json: {' '.join(docs['cli']['runs'][0]['argv'])}: exit",
        f"cli.json: {' '.join(runs[-1]['argv'])}: {report}",
        f"cli.json: {' '.join(docs['cli']['runs'][1]['argv'])}: added",
        "tau.json: eps=1.0 T=5 R=1.0: tau",
        "4 differences"]
    assert {name: files[name].read_text() for name in files} == kept
