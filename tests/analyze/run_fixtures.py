#!/usr/bin/env python3
"""Fixture corpus for tools/analyze, run under ctest.

Every fixture line carrying an `// analyze-expect(<CHECK>)` marker must
produce at least that finding ON THAT LINE, and no fixture may produce a
finding on an unmarked line.  *_good.cc fixtures carry no markers, so any
finding in them is a false positive and fails the test.  The run also
asserts R3 (file-level: [[nodiscard]] + -Werror=unused-result) holds for
the real tree, since analyze_tree() evaluates it on every invocation.

Usage: run_fixtures.py [repo_root]
"""

import pathlib
import re
import sys

_EXPECT = re.compile(r"analyze-expect\((A[1-5]|R[1-6])\)")


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    root = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
        here.parent.parent
    sys.path.insert(0, str(root))
    from tools.analyze import engine

    fixtures = sorted((here / "fixtures").glob("*.cc"))
    if not fixtures:
        print("FAIL: no fixtures found")
        return 1

    failures = []
    for fx in fixtures:
        expected = {}  # line -> set of checks
        for num, text in enumerate(fx.read_text(encoding="utf-8").splitlines(),
                                   start=1):
            for m in _EXPECT.finditer(text):
                expected.setdefault(num, set()).add(m.group(1))

        rel = str(fx.relative_to(root))
        got = {}
        for f in engine.analyze_tree(root, [fx]):
            if f.path == rel:
                got.setdefault(f.line, set()).add(f.check)
            elif f.check != "R3":
                failures.append(f"{fx.name}: stray finding outside fixture: "
                                f"{f.render()}")
            else:
                failures.append(f"R3 violated on the real tree: {f.render()}")

        for line, checks in sorted(expected.items()):
            missing = checks - got.get(line, set())
            for c in sorted(missing):
                failures.append(f"{fx.name}:{line}: expected {c}, not reported")
        for line, checks in sorted(got.items()):
            surplus = checks - expected.get(line, set())
            for c in sorted(surplus):
                failures.append(f"{fx.name}:{line}: unexpected {c} finding "
                                "(false positive)")

    if failures:
        for msg in failures:
            print("FAIL:", msg)
        print(f"analyze fixtures: {len(failures)} failure(s)")
        return 1
    print(f"analyze fixtures: {len(fixtures)} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
