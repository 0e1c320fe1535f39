"""Pinned outputs of the scripts in scripts/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artin_schreier_survey(capsys):
    survey = load_script("artin_schreier_survey")
    for p in (2, 3, 5, 7):
        survey.run(survey.GridConfig(p, -12, 4))
    assert capsys.readouterr().out == (GOLDEN / "as_survey.txt").read_text()


def test_extension_survey(capsys):
    survey = load_script("extension_survey")
    survey.run(survey.SurveyConfig(panel=survey.DEFAULT_PANEL))
    assert capsys.readouterr().out == (GOLDEN / "extension_survey.txt").read_text()
