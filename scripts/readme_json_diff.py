#!/usr/bin/env python3
"""Compare the JSON of every README command under two source trees.

    python3 scripts/readme_json_diff.py OLD_SRC NEW_SRC

Each `whitney ...` line of the README's shell blocks runs as `python3 -m
whitney ...` with PYTHONPATH=OLD_SRC and again with NEW_SRC, each tree in
its own temporary directory, in README order (so `mesh gen --output`
feeds the `mesh info` after it).  One line per command gives both exit
codes, the largest relative difference of any float in the two JSON
payloads, and whether the payloads are byte-identical; indented lines
below it list each differing float.  Keys, list lengths and every
non-float leaf must match; the script exits 1 when a command differs in
exit code or in any of those, 0 otherwise.
"""

import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text):
    """The argument lists of the `whitney` lines in the ```sh blocks."""
    commands, in_shell = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_shell = line.strip() == "```sh"
            continue
        words = shlex.split(line, comments=True) if in_shell else []
        if words[:1] == ["whitney"]:
            commands.append(words[1:])
    return commands


def run(src, argv, cwd):
    """(exit code, stdout) of `python -m whitney argv` on the tree src."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-m", "whitney", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _leaves(value, path=""):
    """(dotted path, leaf) pairs; dicts add their key list, lists their length."""
    if isinstance(value, dict):
        yield path + "{}", sorted(value)
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path + "[]", len(value)
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}.{i}")
    else:
        yield path, value


def compare(old, new):
    """(differing floats as (path, old, new, relative difference), paths of
    any other mismatch) of two JSON values."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    floats, problems = [], sorted(a.keys() ^ b.keys())
    for path in sorted(a.keys() & b.keys()):
        x, y = a[path], b[path]
        if isinstance(x, float) and isinstance(y, float):
            if x != y:
                floats.append((path, x, y, abs(x - y) / max(abs(x), abs(y))))
        elif x != y or type(x) is not type(y):
            problems.append(path)
    return floats, problems


def diff_command(old_src, new_src, words, old_dir, new_dir):
    """Run one command under both trees and print its line; True when the
    exit codes, keys, list lengths or non-float leaves differ."""
    (old_code, old_out), (new_code, new_out) = (
        run(old_src, words, old_dir), run(new_src, words, new_dir))
    try:
        floats, problems = compare(json.loads(old_out), json.loads(new_out))
    except json.JSONDecodeError:
        floats, problems = [], ["stdout is not JSON"]
    worst = max((d[3] for d in floats), default=0.0)
    same = "identical" if old_out == new_out else "differ"
    print(f"exit {old_code} {new_code}  max_rel {worst:.2e}  bytes {same}  "
          f"{shlex.join(['whitney', *words])}")
    for path, x, y, rel in floats:
        print(f"    {path}: {x!r} -> {y!r} (rel {rel:.2e})")
    for path in problems:
        print(f"    mismatch at {path}")
    return bool(problems) or old_code != new_code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="source tree to compare against (holds whitney/)")
    parser.add_argument("new_src", help="source tree under test")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        failed = sum(diff_command(args.old_src, args.new_src, words, old_dir, new_dir)
                     for words in readme_commands(README.read_text()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
