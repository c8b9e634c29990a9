"""The README's library quick start runs as printed and does what it says,
and every command line of its CLI quick start parses."""
import re
import shlex
from pathlib import Path

from evslicer.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_hits_its_event_target(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # the block trains toward 120 events per slice and prints the mean it
    # reaches; gate check 8 holds the same run to within 15% of the target
    assert len(printed) == 1
    assert abs(float(printed[0]) - 120) <= 0.15 * 120


def test_cli_quick_start_parses():
    """Each `evslicer ...` line of the "Quick start (CLI)" block, joined
    across its backslash continuations, parses: no example names a flag its
    command does not take. Nothing is run."""
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```", README.read_text(), re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert len(commands) >= 5 and all(argv[0] == "evslicer" for argv in commands)
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert callable(args.func), argv


def test_layout_names_every_module():
    """The "Layout" block lists exactly the modules in src/evslicer/."""
    layout = re.search(r"## Layout\n\n```\nsrc/evslicer/\n(.*?)```", README.read_text(), re.S)
    listed = [line.split()[0] for line in layout.group(1).splitlines()]
    modules = sorted(p.name for p in (README.parent / "src" / "evslicer").glob("*.py"))
    assert sorted(listed) == modules and len(set(listed)) == len(listed)
