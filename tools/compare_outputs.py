"""Run the seven ``nelsonlab`` commands at their defaults in two checkouts and compare outputs.

    python3 tools/compare_outputs.py --parent DIR --change DIR [--out DIR]

Each checkout runs ``python -m nelsonlab.cli <command> --out <dir>`` for
every command of ``COMMANDS``, with its own ``src/`` on ``PYTHONPATH``, one
process at a time, all into one output directory per side
(``<out>/parent`` and ``<out>/change``; ``report`` runs last and reads the
other six reports).  Every report and CSV is compared byte for byte; each
manifest (``*_manifest.json``) is compared as JSON without its
``timestamp``.  The exit codes of the commands are compared too.  The files
that differ or exist on one side only are listed, and the exit code is 1 on
any difference, 0 otherwise.  ``--out`` defaults to a new temporary
directory, which is kept for inspection.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("algebra", "dispersion", "mourre", "evolve", "w", "wplus", "report")
SIDES = ("parent", "change")


def run_commands(checkout: Path, out: Path) -> dict:
    """Run every command of ``COMMANDS`` at its defaults from ``checkout``'s
    ``src/`` into ``out``; the exit code of each."""
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    codes = {}
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "nelsonlab.cli", command, "--out", str(out)],
                              cwd=checkout, env=env, capture_output=True, text=True, check=False)
        codes[command] = done.returncode
    return codes


def _manifest(path: Path) -> dict:
    record = json.loads(path.read_text(encoding="utf-8"))
    record.pop("timestamp", None)
    return record


def compare_dirs(parent: Path, change: Path) -> list[str]:
    """The names of the files that differ between two output directories,
    sorted: reports and CSVs byte for byte, manifests as JSON without their
    ``timestamp``, and every file present on one side only."""
    names = {p.name for side in (parent, change) for p in side.iterdir() if p.is_file()}
    differ = []
    for name in sorted(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            differ.append(name)
        elif name.endswith("_manifest.json"):
            if _manifest(a) != _manifest(b):
                differ.append(name)
        elif a.read_bytes() != b.read_bytes():
            differ.append(name)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="where the outputs go (default: a new temporary directory)")
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    codes = {side: run_commands(getattr(args, side).resolve(), out / side) for side in SIDES}
    differ = [f"exit code of {command}: {codes['parent'][command]} -> {codes['change'][command]}"
              for command in COMMANDS if codes["parent"][command] != codes["change"][command]]
    differ += compare_dirs(out / "parent", out / "change")
    files = sum(1 for _ in (out / "change").iterdir())
    print(f"outputs in {out}: {files} files per side, exit codes {codes['change']}")
    for line in differ:
        print("differs:", line)
    print("identical" if not differ else f"{len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
