"""Session hooks shared by every test module."""

import ast
import io
import resource
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "translab"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def source_lines(root: Path = SRC) -> Counter:
    """The lines of root's modules by kind: docstring (its blank lines too), then code, comment, blank."""
    kinds = Counter()
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        doc, code, comment = set(), set(), set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
        for i in range(1, len(text.splitlines()) + 1):
            kinds["docstring" if i in doc else "code" if i in code else "comment" if i in comment else "blank"] += 1
    return kinds


def pytest_terminal_summary(terminalreporter):
    """The pytest process's peak resident memory, then the size of ``src/translab``, so a log shows both."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux; macOS reports bytes
    terminalreporter.write_line(f"peak RSS of the pytest process: {peak} KiB (ru_maxrss; bytes on macOS)")
    n = source_lines()
    terminalreporter.write_line(f"src/translab lines: {sum(n.values())} = {n['code']} code + {n['docstring']} docstring"
                                f" + {n['comment']} comment + {n['blank']} blank")
