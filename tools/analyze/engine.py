"""Analyzer driver: two passes over src/, allow-directives, baseline.

Pass 1 lexes every file and collects the global table of Status/Result-
returning function names (A4 needs it across translation units).
Pass 2 runs the rule pass (R1-R6) and the hazard checks (A1-A5) per
file, drops findings carrying an `analyze:allow(<check>)` /
`lint:allow(<token>)` comment on the finding line, and finally compares
what is left against the committed baseline.

Baseline semantics (tools/analyze/baseline.json):
  * a finding whose fingerprint (file::check::function::symbol — no line
    number, so unrelated edits don't churn it) appears in the baseline is
    reported as "baselined" and does not fail the run;
  * a finding NOT in the baseline fails the run (new debt);
  * a baseline entry that no longer fires also fails the run (stale —
    the debt was paid, delete the entry so it cannot mask a regression).
Policy: A1/A2 entries are not accepted into the baseline — lifetime
bugs get fixed or carry an in-code allow with a justification.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Set, Tuple

from . import checks, lexer, rules, scopes
from .findings import Finding

SRC_SUFFIXES = {".h", ".cc", ".cpp"}


def collect_files(src: pathlib.Path) -> List[pathlib.Path]:
    return [p for p in sorted(src.rglob("*"))
            if p.suffix in SRC_SUFFIXES and p.is_file()]


def analyze_tree(root: pathlib.Path,
                 paths: List[pathlib.Path] = None) -> List[Finding]:
    src = root / "src"
    files = paths if paths is not None else collect_files(src)
    rpc_dir = src / "rpc"
    print_sinks = {src / "common" / "logging.h", src / "common" / "logging.cc",
                   src / "common" / "check.h", src / "common" / "check.cc"}

    lexed: List[Tuple[pathlib.Path, lexer.LexedFile]] = []
    status_fns: Set[str] = set()
    # A5 reads the struct layouts of the tree's headers (requests live in
    # */messages.h), whichever files are being analyzed.
    structs: Dict[str, Set[str]] = {}
    for m in sorted(src.rglob("*.h")):
        structs.update(checks.collect_heavy_structs(
            lexer.lex(m.read_text(encoding="utf-8"))))
    heavy_reqs = checks.heavy_request_names(structs)
    findings: List[Finding] = []
    for p in files:
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            findings.append(Finding(str(p.relative_to(root)), 0, "R0",
                                    "R0.encoding", "file is not valid UTF-8",
                                    symbol=p.name))
            continue
        lf = lexer.lex(text)
        lexed.append((p, lf))
        status_fns |= checks.collect_status_functions(lf)

    for p, lf in lexed:
        rel = str(p.relative_to(root))
        fns = scopes.extract_functions(lf)
        per_file: List[Finding] = []
        per_file += rules.check_rules(
            lf, rel, in_rpc_layer=rpc_dir in p.parents,
            is_print_sink=p in print_sinks)
        per_file += checks.check_a1(lf, fns, rel)
        per_file += checks.check_a2(lf, fns, rel)
        per_file += checks.check_a3(lf, fns, rel)
        per_file += checks.check_a4(lf, fns, rel, status_fns)
        per_file += checks.check_a5(lf, fns, rel, heavy_reqs)
        # Lambda bodies are walked both standalone and as part of their
        # enclosing function; report each site once.
        seen: Set[Tuple[str, int, str, str]] = set()
        for f in per_file:
            key = (f.path, f.line, f.rule, f.symbol)
            if key in seen:
                continue
            seen.add(key)
            if f.check.startswith("A") and rules.analyze_allowed(
                    lf, f.line, f.check):
                continue
            findings.append(f)

    findings += rules.check_r3(root)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def load_baseline(path: pathlib.Path) -> Dict[str, str]:
    """fingerprint -> note.  Missing file means an empty baseline."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    out: Dict[str, str] = {}
    for entry in data.get("findings", []):
        out[entry["fingerprint"]] = entry.get("note", "")
    return out


def save_baseline(path: pathlib.Path, findings: List[Finding]) -> None:
    entries = [{"fingerprint": f.fingerprint(), "rule": f.rule,
                "note": "accepted pre-existing finding"}
               for f in findings]
    # A1/A2 are never baselined: lifetime bugs get fixed, not suppressed.
    entries = [e for e in entries
               if not e["fingerprint"].split("::")[1] in ("A1", "A2")]
    path.write_text(json.dumps({"findings": entries}, indent=2) + "\n",
                    encoding="utf-8")


def compare(findings: List[Finding],
            baseline: Dict[str, str]) -> Tuple[List[Finding], List[Finding], List[str]]:
    """(new, baselined, stale fingerprints)."""
    new: List[Finding] = []
    matched: List[Finding] = []
    fired: Set[str] = set()
    for f in findings:
        fp = f.fingerprint()
        if fp in baseline:
            matched.append(f)
            fired.add(fp)
        else:
            new.append(f)
    stale = sorted(fp for fp in baseline if fp not in fired)
    return new, matched, stale
