"""Print every executable line of src/contourflow that no tier-1 test reaches.

Runs the tier-1 suite (pyproject's ``testpaths``) in this process under a
``sys.settrace`` line tracer, started on every thread before ``contourflow``
is imported, so module-level lines count too. Tests that start a
subprocess are not traced. Exits 1 if the suite fails or a line outside
``ALLOWED`` was not reached, else 0.

Usage: python scripts/unreached_lines.py [pytest arguments]
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contourflow"

# the lines, by (file, stripped text; None for every line), that no
# in-process test can run, with the reason
ALLOWED = {
    ("__main__.py", None): "runs only under `python -m contourflow`",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that hold bytecode in any code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        # a function's first entry is its def line, which the enclosing code runs
        body = list(code.co_lines())[code.co_name != "<module>":]
        lines.update(line for _, _, line in body if line)  # None or the module's 0
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)  # where the tier-1 command runs, so pyproject's testpaths apply
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    import pytest

    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text)) or ALLOWED.get((path.name, None))
            unreached += reason is None
            print(f"{path.relative_to(ROOT)}:{line}: {text}"
                  + (f"  (allowed: {reason})" if reason else ""))
    print(f"{unreached} unreached line(s) outside the allow-list", file=sys.stderr)
    return 1 if status != 0 or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
