"""Check that CLI jobs give the same outputs at a git revision and in this tree.

    python scripts/same_outputs.py REV [JOBFILE]

The tree of REV (``git archive``) is extracted to a temporary directory.
Every job is run there and in the working tree of this checkout, each in a
fresh ``python -m arithdyn.cli`` process with that tree's ``src`` on the
path and the tree's root as the working directory.  The jobs are the keys
of ``tests/cli_digests.json`` and the lines of JOBFILE, each split with
``shlex.split`` (blank lines and ``#`` comments skipped).  Every job whose
stdout, stderr or exit code differs is printed; the exit code is 1 if any
does, 0 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


def jobs(jobfile: str | None) -> list[list[str]]:
    keys = json.loads((ROOT / "tests" / "cli_digests.json").read_text(encoding="utf-8"))
    lines = list(keys)
    if jobfile:
        lines += Path(jobfile).read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv and argv not in out:
            out.append(argv)
    return out


def run(tree: Path, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one job; exit code None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "arithdyn.cli", *argv], cwd=tree, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", b""
    return proc.returncode, proc.stdout, proc.stderr


def main(args: list[str]) -> int:
    if not 1 <= len(args) <= 2:
        print("usage: python scripts/same_outputs.py REV [JOBFILE]", file=sys.stderr)
        return 2
    rev, jobfile = args[0], args[1] if len(args) > 1 else None
    todo = jobs(jobfile)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        for argv in todo:
            old, new = run(Path(tmp), argv), run(ROOT, argv)
            parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                     if a != b]
            if parts:
                differ += 1
                print(f"{shlex.join(argv)}: {', '.join(parts)} differ "
                      f"(exit {old[0]} at {rev}, {new[0]} here)")
    print(f"{len(todo)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
