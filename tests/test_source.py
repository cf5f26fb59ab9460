"""Source rules that no installed linter checks."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sphere_spectra"


def test_source_lines_fit_79_columns():
    files = sorted(SRC.glob("*.py"))
    assert files
    long = [f"{path.name}:{i} ({len(line)})" for path in files
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []
