"""Source layout rules that keep line counts honest."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccmix"
MAX_COLUMNS = 88


def test_source_lines_fit_88_columns():
    """Every line of src/ccmix/*.py fits in 88 columns, so a shorter file
    is less code, not the same code packed into longer lines."""
    long = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long, "\n".join(long)
