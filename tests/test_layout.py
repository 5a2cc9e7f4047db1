from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    # each line of README's Layout block that starts with a file name names
    # a module of src/pclab, and every module has such a line
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = {words[0] for words in map(str.split, block.splitlines()) if words and words[0].endswith(".py")}
    assert named == {path.name for path in (ROOT / "src" / "pclab").glob("*.py")}
