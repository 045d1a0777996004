"""``tools/mutants.py``'s list against this tree; CI runs the tool itself."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_mutant_text_occurs_once():
    assert mutants.text_problems(mutants.MUTANTS) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_a_missing_text_fails_the_tool_before_any_test_runs(capsys):
    gone = mutants.MUTANTS[0]._replace(name="gone", text="no such text")
    assert mutants.main([gone, *mutants.MUTANTS]) == 1
    assert capsys.readouterr().out == (
        f"gone: its text occurs 0 times in {gone.path}, not once\n")
