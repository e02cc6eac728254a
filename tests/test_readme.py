import gc
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The README's Library code block, padded with blank lines so that a
    traceback names its line in README.md."""
    text = README.read_text()
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, text.index("## Library"))
    return "\n" * text.count("\n", 0, match.start(1)) + match.group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # The README's own input example: two comparates on three tasks.
    (tmp_path / "results.csv").write_text(
        "comparate,task1,task2,task3\n"
        "MethodA,0.91,0.85,0.78\n"
        "MethodB,0.89,0.87,0.75\n"
    )
    monkeypatch.chdir(tmp_path)
    # A file the example opens and leaves open warns when it is collected.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(_library_block(), str(README), "exec"), {})
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert (tmp_path / "matrix.svg").read_bytes().startswith(b"<?xml")
