"""Scope-aware static analysis for the CFS coroutine DES.

A multi-pass analyzer over a real C++ token stream (lexer.py), a
brace/scope tracker and function-body walker (scopes.py) — no libclang.
Run it as `python3 -m tools.analyze`. It supersedes the old regex lint
(its rules live on in rules.py) and adds the suspension-point hazard
checks a cooperative-coroutine codebase needs (checks.py):

  A1  reference/iterator/pointer into a mutable container held live
      across a suspension point (co_await, or capture into a deferred
      Schedule/After callback);
  A2  deferred-event or coroutine lambdas capturing `this` / stack
      locals by reference without a lifetime guard;
  A3  nondeterminism the regexes cannot see: pointer-keyed ordered
      containers, pointer values laundered into integers, float
      accumulation across container iteration;
  A4  Status/Result discards laundered past [[nodiscard]]: dead Status
      locals and statement-level ternary/comma discards;
  A5  a braced request temporary owning a string/vector/Buffer/map
      inside a co_await full-expression (the gcc 12 double-destroy).

Plus the ported line rules R1-R6 (rules.py), now token-based so comments
and string literals no longer false-positive, with the same
`lint:allow(<rule>)` escape hatch.  A-checks use `analyze:allow(<check>)`.

Baseline workflow (engine.py): findings are fingerprinted by
(file, check, function, symbol) — stable across unrelated edits — and
compared against tools/analyze/baseline.json.  CI fails on any finding
not in the baseline AND on any baseline entry that no longer fires
(stale).  The A1/A2 baseline is empty by policy: real lifetime findings
get fixed, provably-safe patterns get an in-code allow with a
justification comment, visible in review.

See DESIGN.md "Static analysis" for the full catalog and policy.
"""

__all__ = ["lexer", "scopes", "checks", "rules", "engine"]
