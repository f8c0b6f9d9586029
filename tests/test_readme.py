"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    # the first python block after the heading; its own asserts are the check
    _, found, section = README.read_text(encoding="utf-8").partition("## Library sketch\n")
    assert found, "README.md has no '## Library sketch' section"
    _, found, rest = section.partition("```python\n")
    assert found, "no python block after '## Library sketch'"
    namespace = {}
    exec(compile(rest.partition("```")[0], f"{README}:Library sketch", "exec"), namespace)
    assert namespace["report"].sink_count == 189
