import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session_runs():
    # The `>>>` lines of the README's short session, with their printed output.
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0 and result.failed == 0
