"""The README examples run: each quick-start line that ends in a literal
comment evaluates to that literal, and each ``wreathperm ... # -> out`` line
prints ``out``."""

import ast
import re
import shlex
from pathlib import Path

import wreathperm.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading``."""
    after = README[README.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def _literal(comment: str):
    """The value of a comment that is a Python literal, else ``None``."""
    try:
        return (ast.literal_eval(comment.strip()),)
    except (ValueError, SyntaxError):
        return None


def test_quick_start_values():
    source = _block("## Library quick start", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        _, _, comment = lines[node.end_lineno - 1].partition("#")
        expected = _literal(comment) if isinstance(node, ast.Expr) else None
        if expected is None:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        assert (value,) == expected, lines[node.end_lineno - 1]
        checked += 1
    assert checked >= 4


def test_command_line_outputs(capsys):
    checked = 0
    for line in _block("## Command line", "sh").splitlines():
        command, arrow, expected = line.partition("# -> ")
        if not arrow:
            continue
        argv = shlex.split(command)
        assert argv[0] == "wreathperm"
        assert cli.main(argv[1:]) == 0
        assert capsys.readouterr().out == expected.strip() + "\n", line
        checked += 1
    assert checked >= 2
