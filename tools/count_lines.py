"""Print the code, docstring and comment-only line counts of ``src/``, then
the code count of each file, one per line.

A line is code if any token on it other than a comment is not part of a
docstring (a string that is a statement of its own); a docstring line if it
holds only docstring tokens; comment-only if it holds a comment and nothing
else. Blank lines are in the total only. Run from the repository root:
``python tools/count_lines.py [root]``.
"""

import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
counts = {"code": 0, "docstring": 0, "comment-only": 0, "total": 0}
per_file = {}  # path -> its code lines
for path in sorted(root.rglob("*.py")):
    kinds = {}  # line number -> kinds of the tokens on it
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type != tokenize.ENCODING]
    for i, tok in enumerate(tokens):
        if tok.type in SKIP:
            continue
        doc = (tok.type == tokenize.STRING and tokens[i + 1].type == tokenize.NEWLINE
               and (i == 0 or tokens[i - 1].type in SKIP))
        kind = "comment-only" if tok.type == tokenize.COMMENT else "docstring" if doc else "code"
        for line in range(tok.start[0], tok.end[0] + 1):
            kinds.setdefault(line, set()).add(kind)
    code = counts["code"]
    for found in kinds.values():
        counts[next(k for k in ("code", "docstring", "comment-only") if k in found)] += 1
    counts["total"] += len(path.read_text().splitlines())
    per_file[path.relative_to(root)] = counts["code"] - code
print(" ".join(f"{name} {n}" for name, n in counts.items()))
for path, n in per_file.items():
    print(f"{n:6d} {path}")
