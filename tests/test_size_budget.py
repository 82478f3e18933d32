"""The package's size budget: `src/yrelay/*.py` stays within the line count
that ROADMAP.md sets for it."""

import pathlib

import yrelay

SRC_LINE_BUDGET = 2432  # the last peak; ROADMAP.md's "Size budget"


def test_src_stays_within_its_line_budget():
    # lines as `wc -l src/yrelay/*.py` counts them; `pytest -s` prints the count
    src = pathlib.Path(yrelay.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    print(f"src/yrelay/*.py: {lines} lines, budget {SRC_LINE_BUDGET}")
    assert lines <= SRC_LINE_BUDGET, f"src/yrelay/*.py has {lines} lines, over its budget of {SRC_LINE_BUDGET}"
