"""Result serialization and Markdown rendering."""

import pytest

from repro.harness.experiments import ExperimentResult
from repro.harness.reporting import (
    experiment_from_dict, experiment_to_dict, load_experiment, load_results,
    markdown_table, save_results,
)
from repro.harness.scurve import SCurve


def _sample_result():
    result = ExperimentResult("FIGX demo")
    result.groups["performance"] = [
        SCurve("alpha", {"p1": 0.9, "p2": 1.1}),
        SCurve("beta", {"p1": 1.0, "p2": 1.0}),
    ]
    result.notes.append("a note")
    return result


def test_roundtrip_via_dict():
    result = _sample_result()
    payload = experiment_to_dict(result)
    back = experiment_from_dict(payload)
    assert back.name == result.name
    assert back.notes == result.notes
    original = result.groups["performance"][0]
    restored = back.groups["performance"][0]
    assert restored.by_program == original.by_program
    assert restored.mean == original.mean


def test_save_and_load(tmp_path):
    results = [_sample_result()]
    path = save_results(results, tmp_path / "results.json")
    assert path.exists()
    loaded = load_results(path)
    assert len(loaded) == 1
    assert loaded[0].name == "FIGX demo"
    curve = loaded[0].groups["performance"][1]
    assert curve.by_program == {"p1": 1.0, "p2": 1.0}


def test_markdown_table():
    text = markdown_table(_sample_result(), "performance")
    assert "| alpha |" in text
    assert "| beta |" in text
    assert "| 1.000 |" in text


def test_dict_is_json_serializable():
    import json
    payload = experiment_to_dict(_sample_result())
    json.dumps(payload)


def test_experiment_from_dict_full_roundtrip():
    result = _sample_result()
    back = experiment_from_dict(experiment_to_dict(result))
    assert back.name == result.name
    assert back.notes == result.notes
    assert list(back.groups) == list(result.groups)
    for group, curves in result.groups.items():
        restored = back.groups[group]
        assert [c.label for c in restored] == [c.label for c in curves]
        for original, copy in zip(curves, restored):
            assert copy.by_program == original.by_program
            assert copy.mean == original.mean
            assert copy.median == original.median
            assert copy.minimum == original.minimum
            assert copy.maximum == original.maximum


def test_load_experiment_single(tmp_path):
    path = save_results([_sample_result()], tmp_path / "one.json")
    result = load_experiment(path)
    assert result.name == "FIGX demo"
    assert load_experiment(path, "FIGX demo").name == "FIGX demo"


def test_load_experiment_by_name(tmp_path):
    second = _sample_result()
    second.name = "FIGY other"
    path = save_results([_sample_result(), second], tmp_path / "two.json")
    assert load_experiment(path, "FIGY other").name == "FIGY other"
    with pytest.raises(ValueError):
        load_experiment(path)  # ambiguous without a name
    with pytest.raises(KeyError):
        load_experiment(path, "FIGZ missing")
